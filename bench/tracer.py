"""Spans around the calls into nullprior's public functions, from outside.

`install` replaces each traced function with a wrapper under the name its
caller looks it up by: `experiments` binds the diagnostics, basis constructors,
solvers and trainers at import and dispatches solvers through `_SOLVERS`, so
those names are replaced in `experiments` (and `cli`), while methods are
replaced on their classes.  Each call records one span (id, parent id, layer
name, thread, start, end) in memory; `summary` turns the spans into counts
and self times, where a span's self time is its duration minus that of its
direct children.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict

SPAN_HEADER = "id,parent,name,thread,start,end"


class Tracer:
    def __init__(self):
        self.spans = []                 # (id, parent, name, thread, start, end)
        self.notes = defaultdict(float)  # counters filled from return values
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, on_result=None):
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, threading.get_ident(),
                              start, end))
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def note_max(self, key, value):
        self.notes[key] = max(self.notes[key], float(value))

    def note_sum(self, key, value):
        self.notes[key] += float(value)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(SPAN_HEADER + "\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%s,%d,%.9f,%.9f\n" % span)

    def summary(self, wall_s):
        """Per-layer calls and self seconds, plus the derived layer metrics."""
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        solve_forwards = 0
        run_time = 0.0
        run_threads = set()
        for span_id, parent, name, thread, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[span_id]
            if name == "operators.forward" and _has_ancestor(by_id, parent,
                                                             "solvers.solve"):
                solve_forwards += 1
            if name == "experiments.run":
                run_time += end - start
                run_threads.add(thread)
        iters = self.notes["solvers.iters"]
        return {
            "operators.forward.calls": calls["operators.forward"],
            "operators.forward.self_s": self_s["operators.forward"],
            "operators.adjoint.calls": calls["operators.adjoint"],
            "operators.adjoint.self_s": self_s["operators.adjoint"],
            "operators.to_dense.self_s": self_s["operators.to_dense"],
            "nullspace.build.self_s": self_s["nullspace.build"],
            "nullspace.basis_mb": self.notes["nullspace.basis_mb"],
            "solvers.solve.self_s": self_s["solvers.solve"],
            "solvers.iters": int(iters),
            "solvers.forward_calls_per_iter": solve_forwards / iters if iters else 0.0,
            "solvers.default_alpha.self_s": self_s["solvers.default_alpha"],
            "denoisers.calls": calls["denoisers.call"],
            "denoisers.self_s": self_s["denoisers.call"],
            "denoisers.estimate_delta.self_s": self_s["denoisers.estimate_delta"],
            "priors.train.self_s": self_s["priors.train"],
            "priors.predict.calls": calls["priors.predict"],
            "phantoms.generate.calls": calls["phantoms.generate"],
            "phantoms.generate.self_s": self_s["phantoms.generate"],
            "diagnostics.compute_rho.self_s": self_s["diagnostics.compute_rho"],
            "diagnostics.estimate_ric.self_s": self_s["diagnostics.estimate_ric"],
            "experiments.io.self_s": self_s["experiments.io"],
            "experiments.sweep.parallel_efficiency":
                run_time / (max(len(run_threads), 1) * wall_s),
        }


def _has_ancestor(by_id, span_id, name):
    while span_id >= 0:
        span = by_id[span_id]
        if span[2] == name:
            return True
        span_id = span[1]
    return False


def _basis_mb(tracer, basis):
    tracer.note_max("nullspace.basis_mb", basis.matrix.nbytes / 1e6)


def _solver_iters(tracer, result):
    tracer.note_sum("solvers.iters", len(result[1].iters) - 1)


def install(tracer):
    """Replace nullprior's public entry points with traced wrappers."""
    from nullprior import cli, denoisers, diagnostics, experiments, operators
    from nullprior import priors, solvers

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    patch(operators.LinearOperator, "forward", "operators.forward")
    patch(operators.LinearOperator, "adjoint", "operators.adjoint")
    for cls in _classes(operators, operators.LinearOperator, "to_dense"):
        patch(cls, "to_dense", "operators.to_dense")

    for constructor in ("qr_nullspace", "fourier_complement", "radon_complement",
                    "toeplitz_complement", "sr_complement"):
        patch(experiments, constructor, "nullspace.build", _basis_mb)

    patch(experiments, "generate", "phantoms.generate")

    patch(experiments, "train_mmse", "priors.train")
    patch(experiments, "train_joint", "priors.train")
    patch(priors.OraclePrior, "predict", "priors.predict")
    patch(priors.TwoLayerNet, "predict", "priors.predict")

    for cls in _classes(denoisers, denoisers.Denoiser, "__call__"):
        patch(cls, "__call__", "denoisers.call")
    patch(denoisers, "estimate_delta", "denoisers.estimate_delta")

    solvers_by_kind = experiments._SOLVERS
    for kind, solve in list(solvers_by_kind.items()):
        solvers_by_kind[kind] = tracer.wrap("solvers.solve", solve, _solver_iters)
    patch(experiments, "solve_fista_sparsity", "solvers.solve", _solver_iters)
    patch(experiments, "default_alpha", "solvers.default_alpha")

    patch(experiments, "compute_rho", "diagnostics.compute_rho")
    patch(experiments, "estimate_ric", "diagnostics.estimate_ric")

    run = tracer.wrap("experiments.run", experiments.run)
    experiments.run = cli.run = run
    patch(experiments, "write_summary_csv", "experiments.io")
    patch(solvers.SolverTrace, "to_csv", "experiments.io")
    patch(diagnostics.TheoryReport, "save", "experiments.io")
    patch(priors.TrainReport, "save_history_csv", "experiments.io")


def _classes(module, base, method):
    """Classes of `module` derived from `base` that define `method` themselves."""
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)
            and method in vars(obj)]
