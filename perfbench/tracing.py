"""Call tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the public functions of every perronlab module,
two methods, the ``linprog`` bindings and four numpy entry points with
timing wrappers.  Modules import by name (``cli.analyze``, ``suites.eigen``,
``spectral.numerical_rank``), so a function is replaced in every perronlab
module that holds it.  Spans stay in memory as
``[name, start, end, parent, thread, child_time, ok]`` and are written out
at the end; ``uninstall`` puts every original binding back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "lattice", "operators", "schemes", "spectral", "fixedspace",
          "semigroup", "gallery", "sampling", "suites")
NUMPY = (("numpy.linalg.eigvals", np.linalg, "eigvals"),
         ("numpy.linalg.svd", np.linalg, "svd"),
         ("numpy.fft.fft", np.fft, "fft"),
         ("numpy.trapezoid", np, "trapezoid"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.patches: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def _wrap(self, name: str, fn, outcome=None):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0, None]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    span[6] = outcome(result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += span[2] - span[1]
                spans.append(span)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"perronlab.{layer}")
        from perronlab import operators, schemes, spectral, suites

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "perronlab" or k.startswith("perronlab.")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"perronlab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        # scipy's linprog is one object bound in two modules; keep them apart
        for mod in (spectral, suites):
            self._patch(mod, "linprog", self._wrap(
                f"{mod.__name__.split('.')[-1]}.linprog", mod.linprog,
                outcome=lambda res: bool(res.success)))
        self._patch(schemes.CoeffStream, "coeffs",
                    self._wrap("schemes.coeffs", schemes.CoeffStream.coeffs))
        self._patch(operators.OperatorMatrix, "from_json", staticmethod(
            self._wrap("operators.from_json", operators.OperatorMatrix.from_json)))
        for name, owner, attr in NUMPY:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Spans as [name, start_s, end_s, parent_index, thread], ordered by
        start, times relative to the first span."""
        order = sorted(self.spans, key=lambda s: s[1])
        index = {id(s): i for i, s in enumerate(order)}
        t0 = order[0][1] if order else 0.0
        rows = [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9),
                 index[id(s[3])] if s[3] is not None else None, s[4]]
                for s in order]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans, passes: int, output_bytes: int,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics, per pass of the workload's call list.  Busy
    time sums span durations (over all threads); self time subtracts the
    traced children."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def sel(name, parent=None):
        ss = by_name.get(name, [])
        if parent is not None:
            ss = [s for s in ss if s[3] is not None and parent(s[3][0])]
        return ss

    def busy(ss):
        # a span nested in another selected span is already counted
        ids = {id(s) for s in ss}

        def nested(s):
            p = s[3]
            while p is not None and id(p) not in ids:
                p = p[3]
            return p is not None

        return sum(s[2] - s[1] for s in ss if not nested(s)) / passes

    def self_time(ss):
        return sum(s[2] - s[1] - s[5] for s in ss) / passes

    def per_pass(count):
        return count // passes if count % passes == 0 else count / passes

    def calls(ss):
        return per_pass(len(ss))

    def ratio(a, b):
        return a / b if b else 0.0

    def success(ss):
        return ratio(sum(1 for s in ss if s[6]), len(ss))

    eigen = sel("spectral.eigen")
    eigvals_in_eigen = sel("numpy.linalg.eigvals", lambda p: p == "spectral.eigen")
    svd = sel("numpy.linalg.svd", lambda p: p.startswith("spectral."))
    in_semigroup = lambda p: p.startswith("semigroup.")
    sampling = [s for s in spans if s[0].startswith("sampling.")]
    return {
        "spectral.eigen.calls": calls(eigen),
        "spectral.eigen.busy_s": busy(eigen),
        "spectral.eigen.self_s": self_time(eigen),
        "spectral.eigvals.busy_s": busy(eigvals_in_eigen),
        "spectral.eigen_over_eigvals": ratio(busy(eigen), busy(eigvals_in_eigen)),
        "spectral.svd.calls": calls(svd),
        "spectral.svd.busy_s": busy(svd),
        "spectral.dim_estimate_check.busy_s": busy(sel("spectral.dim_estimate_check")),
        "spectral.daec_check.busy_s": busy(sel("spectral.daec_check")),
        "spectral.linprog.calls": calls(sel("spectral.linprog")),
        "spectral.linprog.success_ratio": success(sel("spectral.linprog")),
        "schemes.numerical_rank.calls": calls(sel("schemes.numerical_rank")),
        "schemes.numerical_rank.busy_s": busy(sel("schemes.numerical_rank")),
        "schemes.ws_bounded_probe.busy_s": busy(sel("schemes.ws_bounded_probe")),
        "schemes.apply_weight.calls": calls(sel("schemes.apply_weight")),
        "schemes.apply_weight.self_s": self_time(sel("schemes.apply_weight")),
        "schemes.coeffs.busy_s": busy(sel("schemes.coeffs")),
        "schemes.pole_order_at.busy_s": busy(sel("schemes.pole_order_at")),
        "operators.op_norm.calls": calls(sel("operators.op_norm")),
        "operators.op_norm.busy_s": busy(sel("operators.op_norm")),
        "operators.spectral_radius.calls": calls(sel("operators.spectral_radius")),
        "operators.spectral_radius.busy_s": busy(sel("operators.spectral_radius")),
        "operators.from_json.busy_s": busy(sel("operators.from_json")),
        "fixedspace.fixed_space_handle.busy_s":
            busy(sel("fixedspace.fixed_space_handle")),
        "fixedspace.sup_in_fixed_space.calls":
            calls(sel("fixedspace.sup_in_fixed_space")),
        "fixedspace.sup_in_fixed_space.busy_s":
            busy(sel("fixedspace.sup_in_fixed_space")),
        "suites.linprog.calls": calls(sel("suites.linprog")),
        "suites.linprog.busy_s": busy(sel("suites.linprog")),
        "suites.linprog.success_ratio": success(sel("suites.linprog")),
        "suites.run_suite.busy_s": busy(sel("suites.run_suite")),
        "sampling.busy_s": busy(sampling),
        "lattice.lattice_power.busy_s": busy(sel("lattice.lattice_power")),
        "lattice.independence_preserved.busy_s":
            busy(sel("lattice.independence_preserved")),
        "semigroup.semigroup_apply.calls": calls(sel("semigroup.semigroup_apply")),
        "semigroup.semigroup_apply.busy_s": busy(sel("semigroup.semigroup_apply")),
        "semigroup.semigroup_apply.self_s":
            self_time(sel("semigroup.semigroup_apply")),
        "semigroup.fft.calls": calls(sel("numpy.fft.fft", in_semigroup)),
        "semigroup.trapezoid.calls": calls(sel("numpy.trapezoid", in_semigroup)),
        "gallery.run_case.busy_s": busy(sel("gallery.run_case")),
        "gallery.constrained_kernel.busy_s": busy(sel("gallery.constrained_kernel")),
        "cli.self_s": self_time(sel("cli.main")),
        "cli.output_bytes": per_pass(output_bytes),
        "trace.overhead_frac": overhead_frac,
    }


UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "success_ratio": "ratio",
         "output_bytes": "bytes", "overhead_frac": "ratio",
         "eigen_over_eigvals": "ratio"}


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]
