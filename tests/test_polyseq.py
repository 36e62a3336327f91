import hashlib
import warnings
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
    gen_companion,
    multi_index,
    zeros_Q,
    zeros_Q_levels,
)
from symlab.errors import InterlacingViolation, NonFinite
from symlab.symbol import Cut

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


@pytest.fixture(scope="module")
def small_levels(small):
    # zeros of Q_1..Q_150, index m-1 for degree m, from one induction pass
    return list(zeros_Q_levels(small, 150))


def test_zeros_chebyshev_closed_form(cheb, small_levels):
    for n in (4, 9, 17):
        zs = zeros_Q(cheb, n)
        want = np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
        np.testing.assert_allclose(zs, want, atol=1e-13)
    for n in (80, 90, 150):
        want = 0.02 * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
        np.testing.assert_allclose(small_levels[n - 1], want, rtol=0, atol=1e-12 * 0.04)


def test_zeros_large_scale_until_overflow():
    # (0, 1e4): zeros 200 cos(k pi/(n+1)) on [-200, 200], and Q_m at the cut
    # ends grows like 100^m, past the float range at m = 153
    big = build_symbol(1, (0.0, 1e4))
    levels = []
    # NonFinite is the only report: numpy's overflow warning stays silent,
    # and its error state is restored between levels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="Q_153"):
            for zeros in zeros_Q_levels(big, 200):
                assert np.geterr()["over"] == "warn"
                levels.append(zeros)
    assert len(levels) == 152
    n = 150
    want = 200.0 * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
    np.testing.assert_allclose(levels[n - 1], want, rtol=0, atol=1e-12 * 400.0)


def test_zeros_levels_match_zeros_Q(can, small, small_levels):
    levels = list(zeros_Q_levels(can, 25))
    assert len(levels) == 25
    for m in (1, 2, 13, 25):
        assert np.array_equal(levels[m - 1], zeros_Q(can, m))
    for m in (80, 150):
        assert np.array_equal(small_levels[m - 1], zeros_Q(small, m))


def test_zeros_Q_pinned_bits(can, small):
    # sha256 of the zeros' bytes as computed by 48 single bisection steps
    # over the full recurrence; a last-bit drift in any zero changes them
    pins = (
        (can, 60, "3f0c813adde7ebf54d1f5bda893f1968f953efc7e66fbdac41dd36986fca604b"),
        (small, 90, "5eadc854958c0755a655ba4b41d6cc61a1236dce52ae514f315e33595fe33418"),
    )
    for sym, n, digest in pins:
        assert hashlib.sha256(zeros_Q(sym, n).tobytes()).hexdigest() == digest


def test_zeros_Q_degree_zero_is_empty(can):
    zs = zeros_Q(can, 0)
    assert isinstance(zs, np.ndarray) and zs.shape == (0,)
    assert list(zeros_Q_levels(can, 0)) == []


def test_zeros_levels_raise_on_broken_bracket(cheb, cheb_struct):
    # on [-0.9, 0.9] the brackets hold up to Q_5; cos(pi/7) > 0.9, so the
    # outer brackets of level 6 hold no zero of Q_6
    narrow = replace(cheb_struct, cuts=(Cut(1, -0.9, 0.9),))
    levels = zeros_Q_levels(cheb, 10, narrow)
    for m in range(1, 6):
        assert next(levels).size == m
    with pytest.raises(InterlacingViolation, match="Q_6 does not change sign"):
        next(levels)


def test_zeros_canonical_frozen(can):
    zs = zeros_Q(can, 6)
    want = [-4.43057103, -3.34961574, -1.46791358, 0.9257336, 3.29300493, 5.02936182]
    np.testing.assert_allclose(zs, want, atol=1e-7)


def test_zeros_inside_cut_and_interlace(can, can_struct):
    g1 = can_struct.cut(1)
    levels = zeros_Q_levels(can, 25, can_struct)
    prev = next(levels)
    for n, zs in enumerate(levels, start=2):
        assert zs.size == n
        assert np.all(np.diff(zs) > 0)
        assert zs[0] > g1.lo and zs[-1] < g1.hi
        # strict interlacing with the previous degree
        assert np.all(prev > zs[:-1]) and np.all(prev < zs[1:])
        prev = zs
    assert prev.size == 25


def test_companion_polys_sum_rows(can):
    # p_n^(j) = Q_{n-1} + ... + Q_{n-j}, padded to degree n-1
    table = gen_companion(can, 8)
    seq = gen_Q(can, 8)
    for n in (3, 5, 8):
        for j in (1, 2):
            got = table.poly(n, j)
            want = [Fraction(0)] * n
            for i in range(1, j + 1):
                for m, c in enumerate(seq.coeffs[n - i]):
                    want[m] += c
            assert got == want
    with pytest.raises(ValueError):
        table.poly(4, 3)


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
