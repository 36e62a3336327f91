"""Tests of the benchmark itself: inputs, oracles and tracing.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

import symlab  # noqa: E402
from symlab import asymptotics, polyseq, verify  # noqa: E402


@pytest.mark.parametrize("workload", ["symbol_sweep", "deep_zeros"])
def test_same_seed_same_inputs(workload):
    make = inputs.ROUNDS[workload]
    assert make(5, 0) == make(5, 0)
    assert make(5, 0) != make(6, 0)
    assert make(5, 0) != make(5, 1)


def test_generated_symbols_are_admissible():
    for item in inputs.sweep_round(3, 0) + inputs.zeros_round(3, 0):
        if item["p"] == 2:
            x1, x2 = item["x"]
            assert x1 < x2 < 0
            lo, hi = item["gamma1"]
            assert item["gamma2_end"] < lo < hi
        else:
            assert item["coeffs"][1] > 0
    assert all(60 <= it["n"] for it in inputs.zeros_round(3, 0))


def test_cut_closed_forms_match_symlab():
    item = inputs.cubic_item(-2.0, -1.0)
    assert item["coeffs"] == [0.0, 7.0, 3.0]
    struct = symlab.critical_structure(symlab.build_symbol(2, item["coeffs"]))
    assert np.allclose(item["gamma1"], [struct.cut(1).lo, struct.cut(1).hi], rtol=1e-14)
    assert item["gamma2_end"] == pytest.approx(struct.cut(2).hi, rel=1e-14)


def _failed(checks):
    return [c["name"] for c in checks if not c["passed"]]


def test_p1_zero_shift_fails():
    item = dict(inputs.tridiagonal_item(0.3, 1.7), n=61)
    a0, a1 = item["coeffs"]
    k = np.arange(61, 0, -1)
    zs = a0 + 2 * np.sqrt(a1) * np.cos(k * np.pi / 62)
    assert _failed(oracles.zeros_checks(item, 61, zs)) == []
    zs[30] += 1e-6
    assert "zeros_closed_form" in _failed(oracles.zeros_checks(item, 61, zs))


def test_p2_zero_shift_fails():
    item = inputs.cubic_item(-2.3, -0.9)
    sym = symlab.build_symbol(2, item["coeffs"])
    zs = polyseq.zeros_Q(sym, 30)
    assert _failed(oracles.zeros_checks(item, 30, zs)) == []
    for i in (0, 17, 29):
        bad = zs.copy()
        bad[i] += 1e-6
        assert _failed(oracles.zeros_checks(item, 30, bad)) == ["zeros_sign_change"]


def test_failed_check_counts_as_failed_item(tmp_path):
    class Shifted(worker.DeepZeros):
        def call(self, item):
            rc, path = super().call(item)
            with open(path) as fh:
                lines = fh.read().split()
            k, x = lines[5].split(",")
            lines[5] = f"{k},{float(x) + 1e-6!r}"
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            return rc, path

    item = dict(inputs.tridiagonal_item(0.0, 0.25), n=12)
    args = type("Args", (), {"rounds": 1, "seed": 0, "seconds": 0})()
    for cls, ok in ((worker.DeepZeros, True), (Shifted, False)):
        records, walls = worker.run_rounds(cls(str(tmp_path)), None, [item], args, None)
        assert [r["ok"] for r in records] == [ok]
        assert walls[0] > 0


def test_tail_rank():
    assert run.tail([float(i) for i in range(1, 25)]) == (14.0, 100 * 14 / 24)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_wraps_every_binding_and_restores():
    orig_zeros, orig_grid = polyseq.zeros_Q, asymptotics.solve_grid
    assert verify.zeros_Q is orig_zeros
    tr = tracer.Tracer()
    tr.install()
    try:
        assert verify.zeros_Q is not orig_zeros
        assert verify.zeros_Q is polyseq.zeros_Q is symlab.zeros_Q
        assert asymptotics.solve_grid is not orig_grid
        sym = symlab.build_symbol(1, (0.0, 0.25))
        verify.zeros_Q(sym, 4)  # inactive: not recorded
        tr.active = True
        verify.zeros_Q(sym, 5)
        tr.active = False
    finally:
        tr.restore()
    assert verify.zeros_Q is orig_zeros and symlab.zeros_Q is orig_zeros
    assert asymptotics.solve_grid is orig_grid
    m = tr.metrics()
    assert m["polyseq.zeros_Q.calls"] == 1
    assert m["polyseq.zeros_Q.degree_sum"] == 5
    # 5 levels of (48 bisections + bracket check + Newton), plus critical_structure
    assert m["polyseq.eval_Q_with_derivative.calls"] == 5 * 50
    assert m["symbol.critical_structure.calls"] == 1
    assert 0 < m["polyseq.zeros_Q.self_s"] < sum(np.array(tr.span_end) - np.array(tr.span_start))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    layer = [m["name"] for m in bench["per_layer"]]
    assert layer == tracer.metric_names() + [
        "bench.trace_overhead_s", "bench.fail_ratio", "bench.worst_bound_use"]
    assert all(m["unit"] == run._unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
