"""The benchmark's workloads: one nullprior CLI command each, on a fixed config.

Each workload is driven through `nullprior.cli.main` with its YAML config,
an explicit `--out` and the benchmark's `--seed`.  A sweep's set-up is timed
on the config of its first grid point.
"""

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
DEFAULT_SEED = 4


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str             # "run" or "sweep"
    sweep_param: str = None
    grid_text: str = ""
    trained_prior: bool = False  # the run also writes training_history.csv

    @property
    def config(self):
        return CONFIG_DIR / f"{self.name}.yaml"

    @property
    def grid(self):
        return tuple(float(v) for v in self.grid_text.split(",") if v)

    @property
    def points(self):
        """Operations one command performs: one per sweep point."""
        return len(self.grid) if self.sweep_param else 1

    def argv(self, seed, out_dir):
        args = [self.subcommand, "--config", str(self.config),
                "--seed", str(seed), "--out", str(out_dir)]
        if self.sweep_param:
            args += ["--param", self.sweep_param, "--grid", self.grid_text]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("mri-dct-64", "run"),
    Workload("ct-admm-sweep", "sweep", sweep_param="gamma", grid_text="0.3,3"),
    Workload("blur-net-32", "run", trained_prior=True),
)}
