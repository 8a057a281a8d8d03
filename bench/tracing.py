"""Layer spans for the traced benchmark run, recorded from outside the package.

:func:`install` swaps timing wrappers into the attributes of the loaded
``jdhym`` modules, so every call that crosses a layer boundary opens a span;
:meth:`Tracer.restore` puts the originals back.  Nothing under ``src/``
changes.  The boundaries are

* the public functions of ``fields``, ``solver``, ``hermitian``,
  ``properties``, ``functionals`` and ``stability`` (their ``__all__``);
* the ``evaluate`` / ``linear_coefficient`` closures of every problem built
  by ``make_j_problem`` / ``make_dhym_problem``;
* the ``scipy.fft`` transforms (held as the module or as functions) and
  ``lgmres``, with the solver's operator and preconditioner ``matvec`` calls
  as child spans of the Krylov span;
* the config-parse and artifact-emit helpers of ``cli``.

Spans stay in memory as ``[name, parent, t0, t1, child_time]``; a span's
self time is its duration minus the time its children cover.  A call whose
innermost open span already carries the same name joins that span instead of
opening a new one (a public function calling its neighbour in one layer).
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
import types

# span name per fields function; the rest of fields.__all__ is "fields.other"
FIELDS_KIND = {
    "complex_hessian": "fields.hessian",
    "hessian_values": "fields.hessian",
    "complex_gradient": "fields.hessian",
    "relative_spectrum_field": "fields.spectrum",
    "min_eigenvalue_field": "fields.spectrum",
    "mixed_density": "fields.density",
    "wedge_integral": "fields.density",
    "integrate": "fields.density",
}
# artifact I/O is timed as cli.emit, not as a fields kernel
FIELDS_SKIP = {"save_scalar_field", "load_scalar_field"}
SOLVER_KIND = {
    "newton_solve": "solver.newton",
    "continuity_path_j": "solver.path",
    "continuity_path_dhym": "solver.path",
}
LAYER_DEFAULT = {
    "fields": "fields.other",
    "solver": "solver.other",
    "hermitian": "hermitian",
    "properties": "properties",
    "functionals": "functionals",
    "stability": "stability",
}
CLI_KIND = {
    "_parse_geometry": "cli.parse",
    "_parse_form": "cli.parse",
    "_parse_solver": "cli.parse",
    "_parse_datasets": "cli.parse",
    "_parse_potential": "cli.parse",
    "_constant_or_modes": "cli.parse",
    "_emit_solve": "cli.emit",
    "_write_json": "cli.emit",
    "_write_history_csv": "cli.emit",
    "_write_table": "cli.emit",
}
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn")

# per-layer metrics: name -> unit; every "_s" time is a self time
LAYER_METRICS = {
    "fields.fft_calls": "count",
    "fields.fft_s": "s",
    "fields.fft_bytes_computed": "bytes",
    "fields.hessian_s": "s",
    "fields.spectrum_s": "s",
    "fields.density_s": "s",
    "fields.other_s": "s",
    "solver.coefficient_s": "s",
    "solver.matvecs": "count",
    "solver.matvec_s": "s",
    "solver.precond_calls": "count",
    "solver.precond_s": "s",
    "solver.krylov_solves": "count",
    "solver.krylov_s": "s",
    "solver.krylov_unconverged": "count",
    "solver.matvecs_per_step": "ratio",
    "solver.newton_solves": "count",
    "solver.newton_steps": "count",
    "solver.newton_self_s": "s",
    "solver.evaluate_calls": "count",
    "solver.evaluate_s": "s",
    "solver.linesearch_halvings": "count",
    "solver.path_attempts": "count",
    "solver.path_bisections": "count",
    "solver.path_accept_ratio": "ratio",
    "solver.path_self_s": "s",
    "solver.other_s": "s",
    "hermitian.calls": "count",
    "hermitian.s": "s",
    "properties.trials": "count",
    "properties.s": "s",
    "functionals.s": "s",
    "stability.s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, args, kwargs, on_result=None):
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[3] - rec[2]
        if on_result is not None:
            on_result(result, args)
        return result

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)
        return traced

    def patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (called once, when the run ends)."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": t0, "end": t1,
                                     "self": (t1 - t0) - child}) + "\n")


def _fft_bytes(tracer: Tracer):
    def count(result, args):
        src = args[0] if args else None
        tracer.counts["fields.fft_bytes_computed"] += (
            getattr(src, "nbytes", 0) + getattr(result, "nbytes", 0))
    return count


class _ModuleProxy(types.ModuleType):
    """Stand-in for ``scipy.fft`` whose transforms are traced."""

    def __init__(self, module, wrapped: dict):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _krylov_wrapper(tracer: Tracer, fn):
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    def traced_op(op, name):
        op = aslinearoperator(op)
        return LinearOperator(op.shape, matvec=tracer.wrap(op.matvec, name),
                              dtype=op.dtype)

    @functools.wraps(fn)
    def traced(A, b, *args, **kwargs):
        A = traced_op(A, "solver.matvec")
        if kwargs.get("M") is not None:
            kwargs["M"] = traced_op(kwargs["M"], "solver.precond")
        x, info = tracer.call("solver.krylov", fn, (A, b) + args, kwargs)
        if info != 0:
            tracer.counts["solver.krylov_unconverged"] += 1
        return x, info
    return traced


def _problem_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        problem = tracer.call("solver.other", fn, args, kwargs)
        problem.evaluate = tracer.wrap(problem.evaluate, "solver.evaluate")
        problem.linear_coefficient = tracer.wrap(problem.linear_coefficient,
                                                 "solver.coefficient")
        return problem
    return traced


def _count_path(tracer: Tracer):
    def count(report, args):
        tracer.counts["solver.path_accepted"] += len(report.path_history)
    return count


def _count_trials(tracer: Tracer):
    def count(result, args):
        rows = result if isinstance(result, list) else [result]
        tracer.counts["properties.trials"] += sum(
            int(r["trials"]) for r in rows if isinstance(r, dict) and "trials" in r)
    return count


def install(tracer: Tracer) -> None:
    """Patch every loaded ``jdhym`` module; ``tracer.restore()`` undoes it."""
    import scipy.fft
    import scipy.sparse.linalg

    replace: dict[int, object] = {}  # id(original object) -> traced stand-in
    for layer, default in LAYER_DEFAULT.items():
        module = sys.modules[f"jdhym.{layer}"]
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if not isinstance(fn, types.FunctionType) or name in FIELDS_SKIP:
                continue
            if layer == "solver" and name.startswith("make_") and name.endswith("_problem"):
                replace[id(fn)] = _problem_wrapper(tracer, fn)
                continue
            kind = {"fields": FIELDS_KIND, "solver": SOLVER_KIND}.get(layer, {}).get(
                name, default)
            on_result = None
            if name.startswith("continuity_path"):
                on_result = _count_path(tracer)
            elif layer == "properties":
                on_result = _count_trials(tracer)
            replace[id(fn)] = tracer.wrap(fn, kind, on_result)
    cli = sys.modules["jdhym.cli"]
    for name, kind in CLI_KIND.items():
        fn = getattr(cli, name, None)
        if isinstance(fn, types.FunctionType):
            replace[id(fn)] = tracer.wrap(fn, kind)
    count_bytes = _fft_bytes(tracer)
    wrapped = {}
    for name in FFT_NAMES:
        fn = getattr(scipy.fft, name)
        wrapped[name] = replace[id(fn)] = tracer.wrap(fn, "fields.fft", count_bytes)
    replace[id(scipy.fft)] = _ModuleProxy(scipy.fft, wrapped)
    lgmres = scipy.sparse.linalg.lgmres
    replace[id(lgmres)] = _krylov_wrapper(tracer, lgmres)

    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "jdhym" or modname.startswith("jdhym.")):
            continue
        for attr, value in list(vars(module).items()):
            new = replace.get(id(value))
            if new is not None:
                tracer.patch(module, attr, new)


def layer_metrics(tracer: Tracer, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced operation, every name in LAYER_METRICS."""
    self_s: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    spans = tracer.spans
    covered = 0.0
    path_attempts = 0
    for name, parent, t0, t1, child in spans:
        self_s[name] += (t1 - t0) - child
        calls[name] += 1
        if parent < 0:
            covered += t1 - t0
        if name == "solver.newton":
            p = parent
            while p >= 0 and spans[p][0] != "solver.path":
                p = spans[p][1]
            path_attempts += p >= 0
    c = tracer.counts
    steps = calls["solver.coefficient"]
    accepted = c["solver.path_accepted"]
    values = {
        "fields.fft_calls": calls["fields.fft"],
        "fields.fft_s": self_s["fields.fft"],
        "fields.fft_bytes_computed": c["fields.fft_bytes_computed"],
        "fields.hessian_s": self_s["fields.hessian"],
        "fields.spectrum_s": self_s["fields.spectrum"],
        "fields.density_s": self_s["fields.density"],
        "fields.other_s": self_s["fields.other"],
        "solver.coefficient_s": self_s["solver.coefficient"],
        "solver.matvecs": calls["solver.matvec"],
        "solver.matvec_s": self_s["solver.matvec"],
        "solver.precond_calls": calls["solver.precond"],
        "solver.precond_s": self_s["solver.precond"],
        "solver.krylov_solves": calls["solver.krylov"],
        "solver.krylov_s": self_s["solver.krylov"],
        "solver.krylov_unconverged": c["solver.krylov_unconverged"],
        "solver.matvecs_per_step": calls["solver.matvec"] / steps if steps else 0.0,
        "solver.newton_solves": calls["solver.newton"],
        "solver.newton_steps": steps,
        "solver.newton_self_s": self_s["solver.newton"],
        "solver.evaluate_calls": calls["solver.evaluate"],
        "solver.evaluate_s": self_s["solver.evaluate"],
        # one evaluation per solve plus one per accepted step is the minimum
        "solver.linesearch_halvings": max(
            0, calls["solver.evaluate"] - calls["solver.newton"] - steps),
        "solver.path_attempts": path_attempts,
        "solver.path_bisections": max(0, path_attempts - accepted),
        "solver.path_accept_ratio": accepted / path_attempts if path_attempts else 0.0,
        "solver.path_self_s": self_s["solver.path"],
        "solver.other_s": self_s["solver.other"],
        "hermitian.calls": calls["hermitian"],
        "hermitian.s": self_s["hermitian"],
        "properties.trials": c["properties.trials"],
        "properties.s": self_s["properties"],
        "functionals.s": self_s["functionals"],
        "stability.s": self_s["stability"],
        "cli.parse_s": self_s["cli.parse"],
        "cli.emit_s": self_s["cli.emit"],
        "cli.emit_bytes": c["cli.emit_bytes"],
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.uncovered_share": 1.0 - covered / traced_run_s if traced_run_s > 0 else 0.0,
        "trace.spans": len(spans),
    }
    assert values.keys() == LAYER_METRICS.keys()
    return {k: float(v) if LAYER_METRICS[k] in ("s", "ratio") else int(v)
            for k, v in values.items()}
