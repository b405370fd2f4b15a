"""Command-line entry points.

Subcommands: run, sweep, theory-check, toy3d, inspect-basis.  Exit codes:
0 pass/success, 1 failure, 2 inconclusive theory check, 3 configuration
error.  The output directory comes from --out, the config's `output` key, or
the NULLPRIOR_OUT environment variable, in that order of precedence.
"""

import argparse
import sys

import numpy as np

from .errors import ConfigError, NullPriorError
from .experiments import (
    SWEEP_PARAMS,
    load_config,
    run,
    run_toy3d,
    sweep,
    theory_check,
)
from .nullspace import load_basis, orthogonality_report


def _parser():
    parser = argparse.ArgumentParser(prog="nullprior",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="paired baseline / penalized solve")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="repeat a run over a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated values, e.g. 0,0.1,1")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)

    p_check = sub.add_parser("theory-check",
                             help="verify contraction and penalty bounds")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--out", default=None)

    p_toy = sub.add_parser("toy3d", help="R^3 geometry experiment")
    p_toy.add_argument("--config", default=None)
    p_toy.add_argument("--seed", type=int, default=None)
    p_toy.add_argument("--out", default=None)

    p_basis = sub.add_parser("inspect-basis", help="print a saved basis header")
    p_basis.add_argument("--file", required=True)
    p_basis.add_argument("--samples", type=int, default=0,
                         help="recompute the invertibility loss on this many "
                              "random samples (needs --dense-h)")
    p_basis.add_argument("--dense-h", default=None,
                         help="CSV file holding the dense sensing matrix")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NullPriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "run":
        cfg = load_config(args.config)
        result = run(cfg, out_dir=args.out, seed=args.seed)
        s = result["summary"]
        print(f"baseline PSNR {s['psnr_baseline']:.2f} dB | "
              f"penalized PSNR {s['psnr_npn']:.2f} dB | "
              f"improvement {s['improvement_db']:+.2f} dB | "
              f"improvement zone size {s['ciz_size']}")
        return 0

    if args.command == "sweep":
        cfg = load_config(args.config)
        grid = [float(v) for v in args.grid.split(",") if v != ""]
        rows = sweep(cfg, args.param, grid, out_dir=args.out, seed=args.seed)
        failures = [r for r in rows if r.get("error")]
        for row in rows:
            tag = row["error"] if row.get("error") else \
                f"improvement {row['improvement_db']:+.2f} dB"
            print(f"{args.param}={row[args.param]}: {tag}")
        return 1 if len(failures) == len(rows) else 0

    if args.command == "theory-check":
        cfg = load_config(args.config)
        status, details = theory_check(cfg, out_dir=args.out, seed=args.seed)
        for name, value in details["checks"].items():
            shown = "skipped" if value is None else ("ok" if value else "FAILED")
            print(f"{name}: {shown}")
        report = details["report"]
        print(f"rho = {report.rho:.6g} (certified: {report.certified})")
        print(f"status: {status}")
        return {"pass": 0, "fail": 1, "inconclusive": 2}[status]

    if args.command == "toy3d":
        cfg = load_config(args.config) if args.config else {"problem": "toy3d"}
        result = run_toy3d(cfg, out_dir=args.out, seed=args.seed)
        print(f"in-distribution relative error: {result['in_dist_rel_error']:.4f}")
        print(f"OOD subspace-net error: {result['ood_subspace_error']:.4f} | "
              f"OOD direct-net error: {result['ood_direct_error']:.4f}")
        print(f"reconstruction error with prior: {result['recon_err_npn']:.2e} | "
              f"baseline: {result['recon_err_baseline']:.2e}")
        ok = (result["ood_subspace_error"] < result["ood_direct_error"]
              and result["in_dist_rel_error"] < 0.2)
        print(f"status: {'pass' if ok else 'fail'}")
        return 0 if ok else 1

    if args.command == "inspect-basis":
        basis = load_basis(args.file)
        print(f"method: {basis.method}")
        print(f"p x n: {basis.p} x {basis.n}")
        print(f"ortho_to_H_residual: {basis.ortho_to_H_residual:.6g}")
        print(f"row_gram_residual: {basis.row_gram_residual:.6g}")
        if args.samples and args.dense_h:
            H = np.loadtxt(args.dense_h, delimiter=",", ndmin=2)
            rng = np.random.default_rng(0)
            samples = rng.standard_normal((args.samples, basis.n))
            rep = orthogonality_report(basis, H, samples)
            print(f"rank of [H; S]: {rep.rank_of_stack}")
            print(f"invertibility loss: {rep.invertibility_loss:.6g}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
