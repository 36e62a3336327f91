"""Span tracing around symlab's public functions, installed from outside.

`Tracer.install` replaces each target function at every binding inside
the symlab package (the defining module and every module that imported
it by name, such as `symlab.verify.zeros_Q`), so calls between modules
are seen as well as calls from the benchmark.  `restore` puts the
originals back.  Spans (name, parent, start, end) are kept in flat
arrays while the workload runs and written out at the end; per-layer
metrics are computed from them afterwards: calls, counts taken from
arguments and results, and self time (span time minus the time covered
by child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(v) -> int:
    return int(np.size(v))


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    metric: str
    counts: dict[str, Callable] = field(default_factory=dict)
    calls: bool = True


def _bound_use(out) -> float:
    return abs(out.measured) / out.bound if out.bound > 0 else 0.0


_VERIFY_CHECKS = (
    "widom_l0", "psi_p_closed_form", "mass", "mu_moments", "orthogonality",
    "zeros", "hp_order", "jacobi_perron", "bp_ratio", "cubic", "ratio_rate",
    "spectrum",
)
# zero-bound checks count through the failure ratio only
_ZERO_BOUND_CHECKS = ("ratio_rate",)

TARGETS = (
    Target("symlab.polyseq", "zeros_Q", "polyseq.zeros_Q",
           {"degree_sum": lambda a, k, out: _arg(a, k, 1, "n")}),
    Target("symlab.polyseq", "eval_Q_with_derivative", "polyseq.eval_Q_with_derivative",
           {"points": lambda a, k, out: _size(_arg(a, k, 2, "lam"))}),
    Target("symlab.polyseq", "eval_Q", "polyseq.eval_Q"),
    Target("symlab.polyseq", "gen_Q", "polyseq.gen_Q"),
    Target("symlab.rootfind", "roots_batched", "rootfind.roots_batched",
           {"rows": lambda a, k, out: out.shape[0]}),
    Target("symlab.branches", "solve_grid", "branches.solve_grid",
           {"rows": lambda a, k, out: out.shape[0]}),
    Target("symlab.asymptotics", "ToeplitzSection.det", "asymptotics.ToeplitzSection.det"),
    Target("symlab.asymptotics", "psi_zeros", "asymptotics.psi_zeros"),
    Target("symlab.asymptotics", "gen_spectrum", "asymptotics.gen_spectrum"),
    Target("symlab.asymptotics", "widom_psi", "asymptotics.widom_psi"),
    Target("symlab.asymptotics", "hp_error_order", "asymptotics.mp_fit"),
    Target("symlab.asymptotics", "ratio_rate", "asymptotics.mp_fit"),
    Target("symlab.branches", "pair_minus", "branches.pair_minus",
           {"points": lambda a, k, out: _size(out)}),
    Target("symlab.branches", "boundary_values", "branches.boundary_values"),
    Target("symlab.quadrature", "integrate", "quadrature.integrate",
           {"evals": lambda a, k, out: out.evals}),
    Target("symlab.quadrature", "build_fixed_rule", "quadrature.build_fixed_rule",
           {"nodes": lambda a, k, out: out.x.size}),
    Target("symlab.quadrature", "rule_apply", "quadrature.rule_apply"),
    Target("symlab.quadrature", "cauchy_transform", "quadrature.cauchy_transform"),
    Target("symlab.nikishin", "build_system", "nikishin.build_system"),
    Target("symlab.nikishin", "psi_values", "nikishin.psi_values",
           {"points": lambda a, k, out: _size(out)}),
    Target("symlab.symbol", "critical_structure", "symbol.critical_structure"),
    *(Target("symlab.cubic", name, "cubic", calls=False)
      for name in ("cubic_build", "cubic_z0", "cubic_rho1_density", "cubic_rho2_density")),
    Target("symlab.cli", "main", "cli.main"),
    *(Target("symlab.verify", f"check_{name}", f"verify.{name}", calls=False)
      for name in _VERIFY_CHECKS),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for t in TARGETS:
        if t.metric.startswith("verify."):
            names.append(f"{t.metric}.s")
            if t.metric.split(".")[1] not in _ZERO_BOUND_CHECKS:
                names.append(f"{t.metric}.bound_use")
            continue
        kinds = (["calls"] if t.calls else []) + list(t.counts) + ["self_s"]
        if t.metric == "branches.pair_minus":
            kinds.append("fallback_ratio")
        names.extend(f"{t.metric}.{kind}" for kind in kinds)
    return list(dict.fromkeys(names))


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # metric name per name id
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self.bound_use: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self, targets=TARGETS) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "symlab" or name.startswith("symlab."))]
        for t in targets:
            owner = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._replace(cls, meth, orig, self._wrap(orig, t))
                continue
            orig = getattr(owner, t.attr)
            wrapper = self._wrap(orig, t)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._replace(m, key, orig, wrapper)

    def _replace(self, holder, key, orig, new) -> None:
        self._saved.append((holder, key, orig))
        setattr(holder, key, new)

    def restore(self) -> None:
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()

    def _wrap(self, fn, target: Target):
        nid = self._ids.setdefault(target.metric, len(self._ids))
        if nid == len(self.names):
            self.names.append(target.metric)
        tracer = self
        counts = tuple((f"{target.metric}.{k}", f) for k, f in target.counts.items())
        is_check = target.metric.startswith("verify.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer._stack.pop()
            for key, f in counts:
                tracer.counts[key] = tracer.counts.get(key, 0) + f(args, kwargs, out)
            if is_check:
                prev = tracer.bound_use.get(target.metric, 0.0)
                tracer.bound_use[target.metric] = max(prev, _bound_use(out))
            return out

        return wrapper

    # -- results --

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts (after install)."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        nids = len(self.names)
        calls = np.bincount(name, minlength=nids)
        self_sum = np.bincount(name, weights=self_t, minlength=nids)
        total = np.bincount(name, weights=dur, minlength=nids)
        out: dict[str, float] = {}
        for metric in metric_names():
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = int(calls[self._ids[base]])
            elif kind == "self_s":
                out[metric] = float(self_sum[self._ids[base]])
            elif kind == "s":
                out[metric] = float(total[self._ids[base]])
            elif kind == "bound_use":
                out[metric] = self.bound_use.get(base, 0.0)
            elif kind == "fallback_ratio":
                pm, bv = self._ids["branches.pair_minus"], self._ids["branches.boundary_values"]
                nested = int(np.sum((name == bv) & has_parent
                                    & (name[np.maximum(parent, 0)] == pm)))
                points = self.counts.get("branches.pair_minus.points", 0)
                out[metric] = nested / points if points else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write_spans(self, path: str) -> None:
        """All spans as gzip'd TSV: id, parent id, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, (nid, par, t0, t1) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{i}\t{par}\t{self.names[nid]}\t{t0!r}\t{t1!r}\n")
