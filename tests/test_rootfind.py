import numpy as np
import pytest

from symlab.rootfind import bisect


def _run(f, lo, hi, steps, per_call):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return bisect(f, lo, hi, np.sign(f(lo)), steps, per_call=per_call)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# sign changes of cos at -pi/2, pi/2, 3pi/2, 5pi/2, 7pi/2; the last
# bracket runs downward (lo > hi), which the step rule allows
COS_LO = [-2.0, 0.0, 3.0, 6.0, 10.0, 2.0]
COS_HI = [-1.0, 3.0, 6.0, 9.0, 11.0, 1.0]


@pytest.mark.parametrize("steps", [48, 60])
@pytest.mark.parametrize("per_call", [2, 3, 4])
def test_multisection_matches_single_steps_on_cos(steps, per_call):
    want = _run(np.cos, COS_LO, COS_HI, steps, 1)
    _assert_same_bits(_run(np.cos, COS_LO, COS_HI, steps, per_call), want)
    # brackets of any shape: the tree rows stack on a new leading axis
    lo2, hi2 = np.reshape(COS_LO, (2, 3)), np.reshape(COS_HI, (2, 3))
    want2 = _run(np.cos, lo2, hi2, steps, 1)
    _assert_same_bits(want2, tuple(w.reshape(2, 3) for w in want))
    _assert_same_bits(_run(np.cos, lo2, hi2, steps, per_call), want2)
    np.testing.assert_allclose(0.5 * (want[0] + want[1]),
                               np.array([-1, 1, 3, 5, 7, 1]) * np.pi / 2, atol=1e-14)


@pytest.mark.parametrize("per_call", [2, 3, 4])
def test_multisection_collapses_on_exact_zero(per_call):
    # f(x) = x hits 0 exactly at step 1 on [-1, 1], at step 2 on [-3, 1],
    # ..., at step 5 on [-31, 1]: inside and across a multisection call
    lo = [-1.0, -3.0, -7.0, -15.0, -31.0, -1.0]
    hi = [1.0, 1.0, 1.0, 1.0, 1.0, 3.0]
    want = _run(lambda x: x, lo, hi, 48, 1)
    assert np.all(want[0] == 0.0) and np.all(want[1] == 0.0)
    _assert_same_bits(_run(lambda x: x, lo, hi, 48, per_call), want)


@pytest.mark.parametrize("per_call", [1, 2, 4])
def test_f_receives_the_midpoint_tree(per_call):
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.cos(x)

    lo, hi = np.array(COS_LO), np.array(COS_HI)
    bisect(f, lo, hi, np.sign(np.cos(lo)), 8, per_call=per_call)
    rows = () if per_call == 1 else (2**per_call - 1,)
    assert shapes == [rows + lo.shape] * (8 // per_call)


@pytest.mark.parametrize("per_call", [1, 4])
def test_no_brackets(per_call):
    empty = np.empty(0)
    lo, hi = bisect(np.cos, empty, empty, empty, 60, per_call=per_call)
    assert lo.shape == hi.shape == (0,)


def test_per_call_must_divide_steps():
    lo, hi = np.array([0.0]), np.array([3.0])
    with pytest.raises(ValueError, match="does not divide"):
        bisect(np.cos, lo, hi, np.sign(np.cos(lo)), 48, per_call=5)
