"""Checks a workload's CLI outputs, and captures the references it compares to.

A check requires every expected file, the exact CSV headers, finite values
and no sweep row with an error.  On a seed with a stored reference, summary
values and sampled trace rows must lie within a relative tolerance of the
values captured at the commit that introduced the benchmark (the bytes can
change with the BLAS thread count, so bytes are compared only between runs in
one environment, by `run.py`).  On the default seed the penalized solve must
beat the baseline at every point.

Capture references from a finished command's output directory with

    python3 bench/check.py --workload mri-dct-64 --seed 4 --out DIR
"""

import argparse
import csv
import json
import math
from pathlib import Path

from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS

REFERENCE_FILE = BENCH_DIR / "references.json"
RTOL = 1e-6
ATOL = 1e-9
TRACE_ROWS = (0, 1, 2, 5, 10, 20, 40, 80, -1)   # sampled rows; -1 is the last

TRACE_HEADER = ["iter", "err_sq", "proj_err_sq", "phi", "data_res_sq", "psnr",
                "ratio", "in_ciz"]
SUMMARY_HEADER = ["problem", "seed", "gamma", "snr_db", "psnr_baseline",
                  "psnr_npn", "err_baseline", "err_npn", "improvement_db",
                  "ciz_size", "rho", "holdout_error"]
HISTORY_HEADER = ["epoch", "fit", "invertibility", "gram", "holdout_error"]
FINITE_SUMMARY = ("psnr_baseline", "psnr_npn", "err_baseline", "err_npn",
                  "improvement_db", "rho")
TRACES = ("trace_baseline.csv", "trace_npn.csv")


class Outputs:
    """Parsed outputs of one command: summary rows and sampled trace rows."""

    def __init__(self, workload, out_dir):
        self.problems = []
        if workload.sweep_param:
            header = [workload.sweep_param] + SUMMARY_HEADER + ["error"]
            run_dirs = [out_dir / f"point_{i:03d}" for i in range(workload.points)]
        else:
            header = SUMMARY_HEADER
            run_dirs = [out_dir]
        # a gamma sweep repeats "gamma": the sweep value equals the summary's
        self.summary = self._table(out_dir / "summary.csv", header)
        if len(self.summary) != workload.points:
            self.problems.append(f"summary.csv has {len(self.summary)} rows, "
                                 f"expected {workload.points}")
        self.traces = {}
        for run_dir in run_dirs:
            if not (run_dir / "theory.txt").is_file():
                self.problems.append(f"missing {run_dir.name}/theory.txt")
            for name in TRACES:
                key = str((run_dir / name).relative_to(out_dir))
                self.traces[key] = self._table(run_dir / name, TRACE_HEADER)
        if workload.trained_prior:
            self._table(out_dir / "training_history.csv", HISTORY_HEADER)

    def _table(self, path, header):
        if not path.is_file():
            self.problems.append(f"missing {path.name}")
            return []
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            self.problems.append(f"{path.name}: header {rows[:1]} != {header}")
            return []
        return [dict(zip(header, row)) for row in rows[1:]]

    def sampled_traces(self):
        """{file: {iter: [values]}} at TRACE_ROWS."""
        out = {}
        for key, rows in self.traces.items():
            picked = {}
            for i in TRACE_ROWS:
                if -len(rows) <= i < len(rows):
                    row = rows[i]
                    picked[row["iter"]] = [float(row[c]) for c in TRACE_HEADER[1:]]
            out[key] = picked
        return out

    def summary_values(self):
        return [{k: float(v) for k, v in row.items()
                 if k not in ("problem", "error")} for row in self.summary]


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check(workload, seed, out_dir):
    """Returns (problems, values): a list of failed checks, and the metrics.

    values holds the point count, sweep rows with an error, and the mean
    penalized PSNR and improvement over the points that succeeded.
    """
    outputs = Outputs(workload, out_dir)
    problems = list(outputs.problems)
    errors = [row.get("error", "") for row in outputs.summary]
    good = [row for row, err in zip(outputs.summary, errors) if not err]
    for row in good:
        for field in FINITE_SUMMARY:
            if not math.isfinite(float(row[field])):
                problems.append(f"summary {field} = {row[field]}")
        if seed == DEFAULT_SEED and float(row["psnr_npn"]) <= float(row["psnr_baseline"]):
            problems.append(f"psnr_npn {row['psnr_npn']} <= psnr_baseline "
                            f"{row['psnr_baseline']} at the default seed")
    for key, rows in outputs.traces.items():
        for i, row in enumerate(rows):
            for c in TRACE_HEADER[1:]:
                if c == "ratio" and i == len(rows) - 1:
                    continue            # no next iterate to form the last ratio
                if not math.isfinite(float(row[c])):
                    problems.append(f"{key} row {row['iter']} {c} = {row[c]}")
                    break
    ref = load_references().get(workload.name, {}).get(str(seed))
    if ref is not None and not problems:
        problems += _compare(ref, outputs)
    values = {
        "points": workload.points,
        "sweep_row_errors": sum(1 for e in errors if e),
        "psnr_npn_db": _mean(float(r["psnr_npn"]) for r in good),
        "improvement_db": _mean(float(r["improvement_db"]) for r in good),
        "reference": ref is not None,
    }
    return problems, values


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _compare(ref, outputs):
    problems = []
    summary = outputs.summary_values()
    if len(summary) != len(ref["summary"]):
        return [f"{len(summary)} summary rows, reference has {len(ref['summary'])}"]
    for i, (row, ref_row) in enumerate(zip(summary, ref["summary"])):
        for field, want in ref_row.items():
            if not _close(row.get(field, math.nan), want):
                problems.append(f"summary row {i} {field} = {row.get(field)}, "
                                f"reference {want}")
    traces = outputs.sampled_traces()
    for key, ref_rows in ref["traces"].items():
        rows = traces.get(key, {})
        for it, want in ref_rows.items():
            got = rows.get(it)
            if got is None:
                problems.append(f"{key} has no iteration {it}")
                continue
            for col, a, b in zip(TRACE_HEADER[1:], got, want):
                if not _close(a, b):
                    problems.append(f"{key} iter {it} {col} = {a!r}, reference {b!r}")
    return problems


def load_references():
    if not REFERENCE_FILE.is_file():
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def capture(workload, seed, out_dir):
    """Store the outputs in out_dir as the reference for (workload, seed)."""
    outputs = Outputs(workload, out_dir)
    if outputs.problems:
        raise SystemExit("cannot capture: " + "; ".join(outputs.problems))
    refs = load_references()
    refs.setdefault(workload.name, {})[str(seed)] = {
        "summary": outputs.summary_values(),
        "traces": outputs.sampled_traces(),
    }
    blocks = []
    for name in sorted(refs):
        lines = [f"  {json.dumps(s)}: {json.dumps(refs[name][s])}"
                 for s in sorted(refs[name], key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    capture(WORKLOADS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
