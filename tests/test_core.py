import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosctl import DomainSpec, MapModel, RowError, as_state, fd_jacobian, norm

finite_components = st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_components, min_size=1, max_size=6).map(np.array)


def test_norm_examples():
    assert norm([1, -2, 3], "max") == 3
    assert norm([3, 4], "euclidean") == 5
    for kind in ("max", "euclidean", "sum"):
        assert norm([0, 0, 0], kind) == 0


def test_norm_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        norm([1.0, float("nan")], "max")
    with pytest.raises(ValueError, match="non-finite"):
        norm([float("inf"), 0.0], "sum")


def test_norm_unknown_kind():
    with pytest.raises(ValueError, match="norm kind"):
        norm([1.0], "manhattan")


@given(vectors, vectors, st.sampled_from(["max", "euclidean", "sum"]))
def test_norm_triangle_inequality(x, y, kind):
    if x.shape != y.shape:
        y = np.resize(y, x.shape)
    assert norm(x + y, kind) <= norm(x, kind) + norm(y, kind) + 1e-9


@given(vectors, st.floats(-100, 100), st.sampled_from(["max", "euclidean", "sum"]))
def test_norm_homogeneity_and_positivity(x, a, kind):
    assert norm(a * x, kind) == pytest.approx(abs(a) * norm(x, kind), rel=1e-12, abs=1e-12)
    assert norm(x, kind) >= 0
    if np.any(x != 0):
        assert norm(x, kind) > 0


@given(vectors)
def test_norm_ordering(x):
    assert norm(x, "max") <= norm(x, "euclidean") + 1e-12
    assert norm(x, "euclidean") <= norm(x, "sum") + 1e-12


def test_as_state_validation():
    x = as_state([1.0, 2.0], dim=2)
    assert not x.flags.writeable
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_state([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="non-finite"):
        as_state([1.0, float("inf")])
    with pytest.raises(ValueError, match="1-D"):
        as_state([[1.0], [2.0]])


def test_contains_examples():
    orthant = DomainSpec.nonnegative_orthant(2)
    assert orthant.contains([1, 2])
    assert not orthant.contains([-1, 0])
    box = DomainSpec.box([0, 0], [1, 1])
    assert box.contains([0.5, 1.0])  # boundary included
    assert not box.contains([0.5, 1.0 + 1e-12])
    assert DomainSpec.full_space(3).contains([-5, 0, 5])


def test_contains_rows_and_whole_array():
    rows = np.array([[1.0, 2.0], [-1.0, 0.0], [np.nan, 1.0], [0.5, 1.0]])
    orthant = DomainSpec.nonnegative_orthant(2)
    assert orthant.contains_rows(rows).tolist() == [True, False, False, True]
    box = DomainSpec.box([0, 0], [1, 1])
    assert box.contains_rows(rows).tolist() == [False, False, False, True]
    assert DomainSpec.full_space(2).contains_rows(rows).tolist() == [True] * 4
    assert orthant.contains_unchecked(rows[[0, 3]])
    assert not orthant.contains_unchecked(rows[[0, 1]])


def test_evaluate_rows_fallback_isolates_rows():
    def evaluate(x):
        if x[0] > 5.0:
            raise ValueError("too big")
        return 2.0 * x

    f = MapModel(dimension=1, evaluate=evaluate, domain=DomainSpec.full_space(1))
    out = f.evaluate_rows(np.array([[1.0], [np.nan], [2.0]]))
    assert out[0, 0] == 2.0 and np.isnan(out[1, 0]) and out[2, 0] == 4.0
    with pytest.raises(RowError) as err:
        f.evaluate_rows(np.array([[1.0], [6.0], [3.0], [7.0]]))
    assert sorted(err.value.causes) == [1, 3]
    assert all(isinstance(e, ValueError) for e in err.value.causes.values())


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        DomainSpec.nonnegative_orthant(2).contains([1, 2, 3])


def test_box_invariants():
    with pytest.raises(ValueError, match="lo <= hi"):
        DomainSpec.box([1.0], [0.0])
    with pytest.raises(ValueError, match="kind"):
        DomainSpec("ball", 2)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=4),
       st.floats(0, 10), st.floats(0, 10))
def test_contains_monotone_under_box_nesting(point, pad_lo, pad_hi):
    x = np.array(point)
    lo, hi = x - 1.0, x + 1.0
    inner = DomainSpec.box(lo, hi)
    outer = DomainSpec.box(lo - pad_lo, hi + pad_hi)
    assert inner.contains(x)
    assert outer.contains(x)


def test_interior_and_project():
    box = DomainSpec.box([0, 0], [1, 2])
    assert box.is_interior([0.5, 1.0])
    assert not box.is_interior([0.0, 1.0])
    np.testing.assert_allclose(box.project([-1.0, 3.0]), [0.0, 2.0])
    orthant = DomainSpec.nonnegative_orthant(2)
    np.testing.assert_allclose(orthant.project([-1.0, 3.0]), [0.0, 3.0])


def test_fd_jacobian_on_linear_map():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    jac = fd_jacobian(lambda x: a @ x, np.array([0.3, -0.7]))
    np.testing.assert_allclose(jac, a, rtol=1e-8)


def test_map_model_interface(lpa):
    x = np.array([10.0, 5.0, 2.0])
    np.testing.assert_allclose(lpa(x), lpa.evaluate(x))
    assert lpa.dimension == 3
    # analytic and finite-difference Jacobians must agree
    np.testing.assert_allclose(lpa.jacobian_at(x),
                               fd_jacobian(lpa.evaluate, x), rtol=1e-5, atol=1e-8)


def test_map_model_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        MapModel(dimension=2, evaluate=lambda x: x,
                 domain=DomainSpec.nonnegative_orthant(3))
