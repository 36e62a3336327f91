import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    build_symbol,
    eval_Q,
    eval_Q_with_derivative,
    gen_Q,
    multi_index,
    zeros_Q,
    zeros_Q_levels,
)
from symlab.cubic import CubicParams, cubic_build
from symlab.errors import InterlacingViolation
from symlab.symbol import Cut, critical_structure
from symlab.verify import check_zeros

# Exact coefficient rows for (0,7,3) from the three-term-plus band recurrence
# lam Q_n = Q_{n+1} + 7 Q_{n-1} + 3 Q_{n-2}, seeded Q_0 = 1, Q_1 = lam.
CAN_ROWS = {
    2: [-7, 0, 1],
    3: [-3, -14, 0, 1],
    4: [49, -6, -21, 0, 1],
    5: [42, 147, -9, -28, 0, 1],
}


def test_gen_Q_exact_rows(can):
    seq = gen_Q(can, 5)
    for n, row in CAN_ROWS.items():
        assert seq.coeffs[n] == [Fraction(c) for c in row]


def test_gen_Q_monic(can):
    seq = gen_Q(can, 9)
    for n in range(10):
        assert seq.coeffs[n][-1] == 1
        assert len(seq.coeffs[n]) == n + 1


def test_eval_Q_matches_exact_rows(can):
    for lam in (2.5, -3.0, 10 + 5j):
        want = lam**3 - 14 * lam - 3
        assert eval_Q(can, 3, lam) == pytest.approx(want, rel=1e-14)


def test_eval_Q_desk_values(can):
    assert eval_Q(can, 8, 2.5) == pytest.approx(-219.38671875, rel=1e-13)
    assert eval_Q(can, 8, 10 + 5j) == pytest.approx(-117523003 - 155987670j, rel=1e-13)


def test_eval_Q_with_derivative(can, cheb):
    v, dv = eval_Q_with_derivative(can, 8, 2.5)
    assert v == pytest.approx(-219.38671875, rel=1e-13)
    assert dv == pytest.approx(7824.75, rel=1e-12)
    # central difference cross-check
    h = 1e-6
    num = (eval_Q(can, 8, 2.5 + h) - eval_Q(can, 8, 2.5 - h)) / (2 * h)
    assert dv == pytest.approx(num, rel=1e-7)
    # complex input runs the same recurrence in complex arithmetic
    lam = 10 + 5j
    v, dv = eval_Q_with_derivative(can, 8, lam)
    assert v == eval_Q(can, 8, lam)
    num = (eval_Q(can, 8, lam + h) - eval_Q(can, 8, lam - h)) / (2 * h)
    assert dv == pytest.approx(num, rel=1e-7)
    # eval_Q runs the same recurrence without the derivative: bit for bit
    # the value part, on p = 1, 2, 3 and real, complex and 2-D input
    x = np.linspace(-12.0, 12.0, 37)
    inputs = (x, x + 0.7j * x[::-1], x[:36].reshape(6, 6), 2.5)
    for sym in (cheb, can, build_symbol(3, (0.0, 9.99, 6.545, 0.74))):
        for n in (0, 1, 2, 7, 31):
            for lam in inputs:
                got = np.asarray(eval_Q(sym, n, lam))
                want = np.asarray(eval_Q_with_derivative(sym, n, lam)[0])
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_chebyshev_scaling(cheb):
    # Q_n for (0, 1/4) is the monic second-kind polynomial U_n(lam)/2^n
    lam = 0.3
    th = np.arccos(lam)
    for n in range(1, 9):
        un = np.sin((n + 1) * th) / np.sin(th)
        assert eval_Q(cheb, n, lam) == pytest.approx(un / 2.0**n, rel=1e-12)


def test_multi_index_balanced_table():
    assert [multi_index(n, 2).components for n in range(8)] == [
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 3),
    ]
    assert multi_index(10, 2).components == (5, 5)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(0, 200), p=st.integers(1, 6))
def test_multi_index_properties(n, p):
    comp = multi_index(n, p).components
    assert len(comp) == p
    assert sum(comp) == n
    assert max(comp) - min(comp) <= 1
    # sizes never increase along the vector
    assert all(comp[i] >= comp[i + 1] for i in range(p - 1))


@pytest.fixture(scope="module")
def small():
    # a small-scale symbol: Q_n is tiny there, so products of two values
    # underflow; zeros are a0 + 2 sqrt(a1) cos(k pi/(n+1)) on [-0.02, 0.02]
    return build_symbol(1, (0.0, 1e-4))


def _chebyshev_zeros(a0, a1, n):
    return a0 + 2.0 * np.sqrt(a1) * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))


def test_zeros_chebyshev_closed_form(cheb):
    for n in (4, 9, 17):
        zs = zeros_Q(cheb, n)
        want = np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
        np.testing.assert_allclose(zs, want, atol=1e-13)
    # zeros 2 sqrt(a1) cos(k pi/(n+1)), to 1e-12 of the cut width: on
    # (0, 1e-4) Q_150 at the cut ends is about 1e-300, on (0, 1e4) 1e+300
    for a1, ns in ((1e-4, (80, 90, 150)), (1e4, (150,))):
        for n in ns:
            zs = zeros_Q(build_symbol(1, (0.0, a1)), n)
            np.testing.assert_allclose(zs, _chebyshev_zeros(0.0, a1, n),
                                       rtol=0, atol=1e-12 * 4.0 * np.sqrt(a1))


def test_zeros_levels_match_zeros_Q(can, cheb, small):
    # every level of the ladder is bit for bit the single-degree finder's
    for sym in (cheb, can, small, build_symbol(3, (0.0, 9.99, 6.545, 0.74))):
        struct = critical_structure(sym)
        levels = zeros_Q_levels(sym, 41, struct)
        assert len(levels) == 41
        for m, zs in enumerate(levels, start=1):
            assert zs.tobytes() == zeros_Q(sym, m, struct).tobytes()


def test_zeros_levels_scale_covariant(can):
    # (0, 7, 3) with lambda scaled by c: coefficients (0, 7 c^2, 3 c^3).
    # Scaling by a power of two is exact, so every level scales exactly,
    # though Q_35 (c = 2^28) and Q_40 (c = 2^24) at the cut ends lie past
    # the float range
    base = zeros_Q_levels(can, 41)
    for k in (24, 28):
        c = 2.0**k
        sym = build_symbol(2, (0.0, 7.0 * c**2, 3.0 * c**3))
        struct = critical_structure(sym)
        assert check_zeros(sym, struct).passed
        for got, want in zip(zeros_Q_levels(sym, 41, struct), base, strict=True):
            assert got.tobytes() == (c * want).tobytes()


def test_zeros_Q_pinned_bits(can, small):
    # sha256 of the zeros' bytes; a last-bit drift in any zero changes them.
    # Recorded when the sign count replaced the level walk in zeros_Q; the
    # ladder's last level must hit the same bits
    pins = (
        (can, 60, "bba0ac89ad66f6e547ef7a26c436d31d9c2766fc21eec840c1455ea908974575"),
        (small, 90, "84801eedf7bf323b6ae784262e2a0b3c8d2629b966f1f140e4e4192a09dc5d2d"),
    )
    for sym, n, pin in pins:
        assert hashlib.sha256(zeros_Q(sym, n).tobytes()).hexdigest() == pin
        assert hashlib.sha256(zeros_Q_levels(sym, n)[-1].tobytes()).hexdigest() == pin


def test_zeros_Q_any_scale():
    # Q_n at the cut ends is about (cut width / 4)^n: 1e-600 for (0, 1e-4)
    # at n = 300 and 1e+400 for (0, 1e4) at n = 200, both past the float
    # range
    for a1, n in ((1e-4, 300), (1e4, 200)):
        zs = zeros_Q(build_symbol(1, (0.0, a1)), n)
        width = 4.0 * np.sqrt(a1)
        np.testing.assert_allclose(zs, _chebyshev_zeros(0.0, a1, n),
                                   rtol=0, atol=1e-12 * width)


@settings(deadline=None, max_examples=12, derandomize=True, database=None)
@given(
    a0=st.floats(-3.0, 3.0),
    a1=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
    n=st.integers(1, 300),
)
def test_zeros_Q_chebyshev_any_symbol(a0, a1, n):
    sym = build_symbol(1, (a0, a1))
    g1 = critical_structure(sym).cut(1)
    # the closed form is itself rounded at the cut's magnitude
    tol = 1e-12 * (g1.hi - g1.lo) + 4.0 * np.spacing(max(abs(g1.lo), abs(g1.hi)))
    np.testing.assert_allclose(zeros_Q(sym, n), _chebyshev_zeros(a0, a1, n),
                               rtol=0, atol=tol)


def _exact_sign(sym, n, x: Fraction) -> int:
    """Sign of Q_n(x) by the recurrence in exact rationals: every float
    is a dyadic rational, so no step rounds."""
    a = [Fraction(v) for v in sym.a]
    cur, hist = Fraction(1), [Fraction(0)] * sym.p
    for _ in range(n):
        nxt = (x - a[0]) * cur - sum(ak * h for ak, h in zip(a[1:], hist))
        cur, hist = nxt, [cur] + hist[:-1]
    return (cur > 0) - (cur < 0)


def _certify(sym, n, zs, cut) -> int:
    """The largest k (1, 2, 4, 8 or 16) such that Q_n has opposite exact
    signs at z - k u and z + k u for each float zero z, u the spacing of
    floats at the cut's magnitude, with the n intervals disjoint: a proof
    that each of the n zeros of Q_n lies within k u of one float zero.
    AssertionError when 16 is not enough."""
    ulp = Fraction(float(np.spacing(max(abs(cut.lo), abs(cut.hi)))))
    worst, ends = 0, []
    for z in map(Fraction, zs):
        k = 1
        while _exact_sign(sym, n, z - k * ulp) == _exact_sign(sym, n, z + k * ulp):
            k *= 2
            assert k <= 16, f"zero {float(z)!r} of Q_{n} not certified within 16 ulps"
        worst = max(worst, k)
        ends += [z - k * ulp, z + k * ulp]
    assert all(a < b for a, b in zip(ends, ends[1:]))
    return worst


@settings(deadline=None, max_examples=8, derandomize=True, database=None)
@given(
    s=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    rho=st.floats(1.5, 8.0),
    n=st.integers(1, 40),
)
def test_zeros_Q_cubic_certified(s, rho, n):
    sym, _ = cubic_build(CubicParams(x1=-s * rho, x2=-s))
    struct = critical_structure(sym)
    g1 = struct.cut(1)
    zs = zeros_Q(sym, n, struct)
    assert zs.size == n and _certify(sym, n, zs, g1) <= 16
    # Q_n alternates in sign at the cut ends and between its zeros
    checks = np.concatenate(([g1.lo], 0.5 * (zs[:-1] + zs[1:]), [g1.hi]))
    signs = np.sign(eval_Q(sym, n, checks))
    assert np.all(signs[:-1] * signs[1:] < 0.0)


def test_zeros_Q_degree_zero_is_empty(can):
    zs = zeros_Q(can, 0)
    assert isinstance(zs, np.ndarray) and zs.shape == (0,)
    assert zeros_Q_levels(can, 0) == []


def test_zeros_refuse_negative_degree(cheb_struct):
    # refused before any structure is built: this symbol has none
    imaginary = build_symbol(1, (0.0, -0.25))
    for find in (zeros_Q, zeros_Q_levels):
        for struct in (None, cheb_struct):
            with pytest.raises(ValueError, match="need n >= 0"):
                find(imaginary, -1, struct)


def test_zeros_levels_raise_on_broken_bracket(cheb, cheb_struct):
    # on [-0.9, 0.9] the counts hold up to Q_5; cos(pi/7) > 0.9, so Q_6 has
    # a zero below -0.9: the sign count sees it at the cut end, for one
    # degree and for the ladder alike
    narrow = replace(cheb_struct, cuts=(Cut(1, -0.9, 0.9),))
    assert [zs.size for zs in zeros_Q_levels(cheb, 5, narrow)] == [1, 2, 3, 4, 5]
    assert zeros_Q(cheb, 5, narrow).size == 5
    for find in (zeros_Q, zeros_Q_levels):
        with pytest.raises(InterlacingViolation,
                           match="Q_0..Q_6 change sign 5 times at cut end -0.9, not 6"):
            find(cheb, 6 if find is zeros_Q else 10, narrow)
    # a_1 < 0: the zeros of Q_4 are imaginary, yet Q_0..Q_4 change sign 4
    # times at -1 and never at 1, so only the closing sign check sees it
    imaginary = build_symbol(1, (0.0, -0.25))
    with pytest.raises(InterlacingViolation, match="Q_4 does not change sign"):
        zeros_Q(imaginary, 4, cheb_struct)


def test_zeros_canonical_frozen(can):
    zs = zeros_Q(can, 6)
    want = [-4.43057103, -3.34961574, -1.46791358, 0.9257336, 3.29300493, 5.02936182]
    np.testing.assert_allclose(zs, want, atol=1e-7)


def test_zeros_inside_cut_and_interlace(can, can_struct):
    g1 = can_struct.cut(1)
    # each level is found on its own, so interlacing compares independent
    # results
    prev, *levels = zeros_Q_levels(can, 25, can_struct)
    for n, zs in enumerate(levels, start=2):
        assert zs.size == n
        assert np.all(np.diff(zs) > 0)
        assert zs[0] > g1.lo and zs[-1] < g1.hi
        # strict interlacing with the previous degree
        assert np.all(prev > zs[:-1]) and np.all(prev < zs[1:])
        prev = zs
    assert prev.size == 25


@settings(deadline=None, max_examples=25)
@given(
    a0=st.floats(-1.0, 1.0),
    a1=st.floats(0.2, 2.0),
    lam=st.floats(-3.0, 3.0),
)
def test_recurrence_holds_pointwise(a0, a1, lam):
    sym = build_symbol(1, (a0, a1))
    # lam Q_n = Q_{n+1} + a0 Q_n + a1 Q_{n-1}
    for n in range(1, 7):
        lhs = lam * eval_Q(sym, n, lam)
        rhs = eval_Q(sym, n + 1, lam) + a0 * eval_Q(sym, n, lam) + a1 * eval_Q(
            sym, n - 1, lam
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
