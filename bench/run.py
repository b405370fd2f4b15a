"""nullprior benchmark: one workload, end-to-end or traced, from the repo root.

    python3 bench/run.py --workload mri-dct-64 --seed 4 --seconds 30 --trace 0

Each repetition runs the workload's CLI command in a fresh process (`rep.py`),
one command at a time: a closed loop with one client.  With `--trace 0` the
repetitions are untraced and give the end-to-end metrics; a repetition is
started only while it is expected to end within `--seconds`, and there is
always at least one.  With `--trace 1` one untraced and one traced repetition
run on the same seed; the traced one gives the per-layer metrics, and the
difference of their wall times is the tracing overhead.

Every repetition's outputs are checked (`check.py`) and must be
byte-identical to those of every other repetition of the same workload and
seed in the same environment, including earlier runs in this checkout.
Outputs, spans and a result file with the environment go to `.bench_out/`.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
from workloads import BENCH_DIR, DEFAULT_SEED, ROOT, SRC_DIR, WORKLOADS

OUT_ROOT = ROOT / ".bench_out"
SETUPS = 3              # build_problem timings per untraced repetition
TIME_LIMIT_S = 170      # every repetition of one run ends within this
MAX_SHOWN = 8           # failed checks printed per repetition
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "operators.forward.calls": "count", "operators.forward.self_s": "s",
    "operators.adjoint.calls": "count", "operators.adjoint.self_s": "s",
    "operators.to_dense.self_s": "s",
    "nullspace.build.self_s": "s", "nullspace.basis_mb": "MB",
    "solvers.solve.self_s": "s", "solvers.iters": "count",
    "solvers.forward_calls_per_iter": "calls/iter",
    "solvers.default_alpha.self_s": "s", "solvers.cg_unconverged": "count",
    "denoisers.calls": "count", "denoisers.self_s": "s",
    "denoisers.estimate_delta.self_s": "s",
    "priors.train.self_s": "s", "priors.predict.calls": "count",
    "phantoms.generate.calls": "count", "phantoms.generate.self_s": "s",
    "diagnostics.compute_rho.self_s": "s",
    "diagnostics.estimate_ric.self_s": "s",
    "experiments.io.self_s": "s",
    "experiments.sweep.parallel_efficiency": "ratio",
    "operators.forward_ms": "ms", "operators.adjoint_ms": "ms",
    "nullspace.project_ms": "ms", "nullspace.backproject_ms": "ms",
    "denoisers.call_ms": "ms",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "experiments.psnr_npn_db": "dB", "experiments.improvement_db": "dB",
    "failures.error_rate": "ratio",
    "failures.runtime_warnings": "count", "failures.sweep_row_errors": "count",
}


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed):
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next(iter(thread_env.values()), f"default ({nproc()}, one per CPU)"),
        "thread_env": thread_env,
        "nproc": nproc(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
    }


def fingerprint(env, workload):
    """Identifies program, config and environment: equal ones give equal bytes."""
    digest = hashlib.sha256()
    fixed = {k: v for k, v in env.items() if k not in ("commit", "seed")}
    digest.update(json.dumps(fixed, sort_keys=True).encode())
    for path in sorted(SRC_DIR.rglob("*.py")) + [workload.config]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def file_digests(out_dir):
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def run_rep(workload, seed, rep_dir, deadline, setups, micro=False, traced=False):
    """One repetition in a fresh process; returns its result dict."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out),
           "--result", str(rep_dir / "result.json"), "--setups", str(setups)]
    if micro:
        cmd.append("--micro")
    if traced:
        cmd += ["--trace", str(rep_dir / "spans.csv")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    with open(rep_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
            status = proc.returncode
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            status = "timeout"
    elapsed = time.perf_counter() - start
    result = {"exit_code": status, "warnings": [], "setup_s": []}
    if status == 0 and (rep_dir / "result.json").is_file():
        result = json.loads((rep_dir / "result.json").read_text())
    if result["exit_code"] != 0:
        problems = [f"command exited with {result['exit_code']} "
                    f"(log: {rep_dir / 'log.txt'})"]
        values = {"points": workload.points, "sweep_row_errors": 0}
    else:
        try:
            problems, values = check.check(workload, seed, out)
        except (ValueError, KeyError) as exc:   # a malformed cell or row
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            values = {"points": workload.points, "sweep_row_errors": 0}
        result["digests"] = file_digests(out)
    result.update(problems=problems, check=values, elapsed_s=elapsed)
    failed = values["points"] if problems else values["sweep_row_errors"]
    result["failed"] = min(failed, values["points"])
    return result


def compare_digests(reps, workload, seed, env):
    """Byte-identical outputs across repetitions and earlier runs, same environment."""
    store_path = OUT_ROOT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{fingerprint(env, workload)}/{workload.name}/{seed}"
    for rep in reps:
        if "digests" not in rep:
            continue
        if key not in store:
            store[key] = rep["digests"]
        elif rep["digests"] != store[key]:
            changed = sorted(k for k in set(rep["digests"]) | set(store[key])
                             if rep["digests"].get(k) != store[key].get(k))
            rep["problems"].append(f"outputs differ from an earlier repetition "
                                   f"in this environment: {changed}")
            rep["failed"] = workload.points
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1))
    os.replace(tmp, store_path)


def median(values):
    return statistics.median(values) if values else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC_DIR / "nullprior" / "__init__.py", workload.config)
               if not p.is_file()]
    if missing:
        print(f"cannot run: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    env = environment(workload, args.seed)
    work_dir = OUT_ROOT / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    reps = []
    if args.trace:
        for i, traced in enumerate((False, True)):
            reps.append(run_rep(workload, args.seed, work_dir / f"rep{i}",
                                deadline, setups=1, micro=True, traced=traced))
    else:
        while True:
            rep = run_rep(workload, args.seed, work_dir / f"rep{len(reps)}",
                          deadline, setups=SETUPS)
            reps.append(rep)
            elapsed = time.monotonic() - start
            if elapsed + rep["elapsed_s"] > min(args.seconds, TIME_LIMIT_S):
                break
    compare_digests(reps, workload, args.seed, env)

    attempted = workload.points * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    measured = [rep for rep in reps if "wall_s" in rep]   # the command ran
    first = measured[0]["check"] if measured else {}
    warnings_seen = [w for rep in reps for w in rep["warnings"]]
    # the paired-run outcome and failure counts, reported in both modes
    outcome = {
        "experiments.psnr_npn_db": first.get("psnr_npn_db", math.nan),
        "experiments.improvement_db": first.get("improvement_db", math.nan),
        "failures.error_rate": failed / attempted,
        "failures.runtime_warnings": len(warnings_seen),
        "failures.sweep_row_errors": sum(rep["check"]["sweep_row_errors"]
                                         for rep in reps),
        "solvers.cg_unconverged": sum("CG did not converge" in w
                                      for w in warnings_seen),
    }
    if args.trace:
        untraced, traced = reps
        layers = dict(traced.get("layers", {}), **untraced.get("micro", {}))
        layers.update(outcome)
        if measured == reps:
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: layers.get(name, math.nan) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": median([rep["wall_s"] for rep in measured]),
            "setup_s": median([t for rep in measured for t in rep["setup_s"]]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in measured]),
        }
        units = END_TO_END

    correct = failed == 0
    report = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "outcome": outcome,
              "reference_compared": any(rep["check"].get("reference") for rep in reps),
              "reps": reps}
    result_path = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1))

    print("environment: " + json.dumps(env))
    print(f"{workload.name} seed {args.seed}: {len(reps)} repetition(s), "
          f"{attempted} operation(s), {failed} failed, reference compared: "
          f"{report['reference_compared']}; details in "
          f"{result_path.relative_to(ROOT)}")
    for rep in reps:
        for problem in rep["problems"][:MAX_SHOWN]:
            print(f"  FAILED CHECK: {problem}")
        if len(rep["problems"]) > MAX_SHOWN:
            print(f"  ... {len(rep['problems']) - MAX_SHOWN} more in the result file")
    shown = metrics if args.trace else dict(metrics, **outcome)
    for name, value in shown.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name) or PER_LAYER[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
