import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gazeaffect.errors import DataError
from gazeaffect.metrics import ccc, ccc_flagged, pearson, pearson_flagged, sse

from oracles import ccc_direct, sse_direct


def test_ccc_perfect_agreement():
    assert ccc([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == pytest.approx(1.0)


def test_ccc_zero_covariance():
    assert ccc([0.5, 0.5, 0.5], [0.0, 0.5, 1.0]) == 0.0


def test_ccc_worked_value():
    # 2*1.25 / (1.25 + 1.25 + 1) = 5/7
    assert ccc([1, 2, 3, 4], [2, 3, 4, 5]) == pytest.approx(5 / 7, abs=1e-15)


def test_ccc_degenerate_flag():
    value, degenerate = ccc_flagged([0.5, 0.5], [0.5, 0.5])
    assert value == 0.0 and degenerate


def test_ccc_matches_direct_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        worst = max(worst, abs(ccc(x, y) - ccc_direct(list(x), list(y))))
    assert worst < 1e-12


def test_ccc_errors():
    with pytest.raises(DataError):
        ccc([1.0], [1.0])
    with pytest.raises(DataError):
        ccc([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_basics():
    x = np.array([0.3, -0.2, 0.8, 0.1])
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson([1, 2, 3, 4], [2, 3, 4, 5]) == pytest.approx(1.0)


def test_pearson_constant_series_flag():
    value, degenerate = pearson_flagged([1.0, 1.0, 1.0], [0.0, 0.5, 1.0])
    assert value == 0.0 and degenerate


def test_sse_basics():
    assert sse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert sse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(2.0)


def test_sse_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100)
    y = rng.normal(size=100)
    assert sse(x, y) == pytest.approx(sse_direct(list(x), list(y)), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=50),
    st.lists(st.floats(-10, 10), min_size=2, max_size=50),
)
def test_ccc_symmetric_and_bounded_by_pearson(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    c, degenerate = ccc_flagged(x, y)
    assert ccc(y, x) == pytest.approx(c, abs=1e-12)
    if not degenerate:
        p, p_degenerate = pearson_flagged(x, y)
        if not p_degenerate:
            assert abs(c) <= abs(p) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=30),
    st.floats(0.1, 4.0),
    st.floats(-3, 3),
)
def test_ccc_affine_invariance(xs, scale, offset):
    # The degenerate flag is an absolute threshold on a denominator that
    # scales with scale**2, so the value is invariant only for pairs that are
    # unflagged both before and after the map.
    x = np.array(xs)
    y = x[::-1].copy()
    before, degenerate = ccc_flagged(x, y)
    mapped = scale * x + offset, scale * y + offset
    assume(not degenerate and not ccc_flagged(*mapped)[1])
    assert ccc(*mapped) == pytest.approx(before, abs=1e-9)


def test_ccc_degenerate_threshold_is_absolute():
    # Denominator 4.4e-11 before scaling and 6.9e-13 after, against 1e-12.
    x = np.array([0.0, 0.0, 1e-05])
    assert ccc_flagged(x, x[::-1]) == (-0.5, False)
    assert ccc_flagged(0.125 * x, 0.125 * x[::-1]) == (0.0, True)


def test_ccc_self_agreement_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(2, 100)))
        if x.std() > 1e-6:
            assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)
