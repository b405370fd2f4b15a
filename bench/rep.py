"""One repetition of a workload, in a fresh process.

Times `experiments.build_problem` on the workload's config `--setups` times,
optionally times the built components' layer calls (`--micro`), then runs
the workload's CLI command through `nullprior.cli.main` with RuntimeWarnings
recorded from outside, optionally traced (`--trace`).  Writes one JSON
object to `--result`.  `run.py` starts this script; it is not run by hand.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
import warnings

from tracer import Tracer, install
from workloads import SRC_DIR, WORKLOADS

MICRO_SECONDS = 0.25   # timed budget per micro-benchmarked call
MICRO_MIN_CALLS = 15


def _median_ms(fn, arg):
    for _ in range(3):
        fn(arg)
    times = []
    spent = 0.0
    while len(times) < MICRO_MIN_CALLS or spent < MICRO_SECONDS:
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return 1e3 * statistics.median(times)


def micro_timings(pb):
    """Median ms per call of the built components' layer entry points."""
    from nullprior.denoisers import denoise

    op, basis, x = pb["op"], pb["basis"], pb["x_star"]
    y = op.forward(x)
    return {
        "operators.forward_ms": _median_ms(op.forward, x),
        "operators.adjoint_ms": _median_ms(op.adjoint, y),
        "nullspace.project_ms": _median_ms(basis.project, x),
        "nullspace.backproject_ms": _median_ms(basis.backproject,
                                               basis.project(x)),
        "denoisers.call_ms": _median_ms(
            lambda v: denoise(pb["denoiser"], v, op.shape_in), x),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--trace", default=None,
                        help="write the command's spans to this CSV file")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import nullprior
    from nullprior import cli, experiments

    if not nullprior.__file__.startswith(str(SRC_DIR)):
        raise SystemExit(f"nullprior imported from {nullprior.__file__}, "
                         f"not from {SRC_DIR}")
    cfg = experiments.load_config(workload.config)
    if workload.sweep_param:
        cfg = experiments.apply_sweep_value(cfg, workload.sweep_param,
                                            workload.grid[0])
    result = {"setup_s": []}
    pb = None
    for _ in range(args.setups):
        pb = None   # free the previous build before the next is timed
        start = time.perf_counter()
        pb = experiments.build_problem(cfg, seed=args.seed)
        result["setup_s"].append(time.perf_counter() - start)
    if args.micro:
        result["micro"] = micro_timings(pb)
    del pb
    gc.collect()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(workload.argv(args.seed, args.out))
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    result.update(
        exit_code=code,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        warnings=[f"{w.category.__name__}: {w.message}" for w in caught],
    )
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["layers"] = tracer.summary(wall)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
