import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    MeasureHandle,
    build_fixed_rule,
    cauchy_transform,
    integrate,
    rho_measure,
    rule_apply,
    s_measure,
    solve_grid,
)
from symlab.quadrature import _ts_new_nodes
from symlab.symbol import Cut, eval_symbol


def interval(lo, hi):
    return Cut(index=1, lo=lo, hi=hi)


def ray(hi):
    return Cut(index=2, lo=-math.inf, hi=hi)


def test_semicircle_mass(cheb):
    res = integrate(rho_measure(cheb, 1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error < 1e-10


def test_arcsine_endpoint_singularity():
    # density blows up like (1 - x^2)^(-1/2); the declared exponents let the
    # rule carry the singular factor exactly through the endpoint region
    m = MeasureHandle(
        name="arcsine",
        cut=interval(-1.0, 1.0),
        density=lambda x: 1.0 / (math.pi * np.sqrt(1.0 - x * x)),
        endpoint_exponents=(-0.5, -0.5),
        tail_exponent=0.0,
    )
    res = integrate(m)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # first moment vanishes by symmetry
    res1 = integrate(m, lambda x: x, f_tail_degree=1.0)
    assert abs(res1.value) < 1e-12
    # second moment of arcsine is 1/2
    res2 = integrate(m, lambda x: x * x, f_tail_degree=2.0)
    assert res2.value == pytest.approx(0.5, abs=1e-11)


def test_ray_algebraic_tail():
    # density t^-2 on (-inf, -1], total mass 1, first absolute moment log-free
    m = MeasureHandle(
        name="tail",
        cut=ray(-1.0),
        density=lambda x: 1.0 / x**2,
        endpoint_exponents=(0.0, 0.0),
        tail_exponent=-2.0,
    )
    res = integrate(m)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    # weight t^-3 * |t| has exact integral 1/... check x -> 1/x moment:
    resm = integrate(m, lambda x: 1.0 / x, f_tail_degree=-1.0)
    assert resm.value == pytest.approx(-0.5, abs=1e-10)


def test_fixed_rule_agrees_with_adaptive(can):
    m = rho_measure(can, 1)
    rule = build_fixed_rule(m, level=8)
    val, err = rule_apply(rule, lambda x: x * x, f_tail_degree=2.0)
    ref = integrate(m, lambda x: x * x, f_tail_degree=2.0)
    assert val == pytest.approx(ref.value, rel=1e-10)


def test_cauchy_transform_semicircle(cheb):
    # C(lam) = 2 (lam -+ sqrt(lam^2 - 1)) on the branch decaying at infinity;
    # (lam - s)(lam + s) = 1 so exactly one factor has modulus below 1;
    # the last three lie within 1e-3 of the cut, on the near-cut path
    m = rho_measure(cheb, 1)
    for lam in (2.0 + 0j, 1.5 + 0.5j, -3.0 + 0.1j, 0.3 + 1e-6j, -0.9 + 1e-5j, 0.5 - 2e-4j):
        s = np.sqrt(lam * lam - 1.0)
        small = lam - s if abs(lam - s) < abs(lam + s) else lam + s
        got = cauchy_transform(m, lam)
        assert got == pytest.approx(2.0 * small, rel=1e-9)


def test_cauchy_transform_near_ray(can):
    # the log-derivative identity z_k'/z_k + hat s_k - hat s_{k+1} = 0 within
    # 1e-3 of the ray Gamma_2 = (-inf, -5], where the near-cut path sums a
    # ray on one side of its local window and an interval on the other
    lams = np.array([-8 + 1e-4j, -35 - 2e-3j, -5.5 + 1e-5j])
    z = solve_grid(can, lams)
    s_hat = np.zeros((4, lams.size), dtype=complex)
    for i in (1, 2):
        m = s_measure(can, i)
        s_hat[i] = [-cauchy_transform(m, lam) for lam in lams]
    log_deriv = (1.0 / eval_symbol(can, z)[2] / z).T
    assert np.abs(log_deriv + s_hat[:-1] - s_hat[1:]).max() < 1e-8


def test_quadresult_error_is_honest(can):
    # rho_2 itself has a nonintegrable t^(-1/2) tail; the counting measure
    # s_2 on the same ray is the finite one, with mass 1/2
    with pytest.raises(Exception):
        integrate(rho_measure(can, 2))
    res = integrate(s_measure(can, 2))
    assert res.value == pytest.approx(0.5, abs=1e-7)
    assert res.error < 1e-6
    assert res.evals > 0 and res.levels >= 1


@settings(deadline=None, max_examples=20)
@given(c=st.floats(0.2, 5.0))
def test_scaled_interval_masses(c):
    # flat density on [0, c] integrates to c exactly under the affine map
    m = MeasureHandle(
        name="flat",
        cut=interval(0.0, c),
        density=lambda x: np.ones_like(x),
        endpoint_exponents=(0.0, 0.0),
        tail_exponent=0.0,
    )
    assert integrate(m).value == pytest.approx(c, rel=1e-11)


def test_node_levels_cached_read_only():
    for level in (0, 1, 7, 13):
        first, again = _ts_new_nodes(level), _ts_new_nodes(level)
        for a, b in zip(first, again):
            assert a is b and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        _ts_new_nodes.cache_clear()
        for a, b in zip(first, _ts_new_nodes(level)):
            assert a.tobytes() == b.tobytes()
