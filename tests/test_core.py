import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosctl import DomainSpec, MapModel, as_state, fd_jacobian, norm
from chaosctl.core import check_tol, norm_rows

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


@pytest.mark.parametrize("kind", ["max", "euclidean", "sum"])
@pytest.mark.parametrize("dim", [1, 3, 8, 9, 40])
def test_norm_rows_equals_norm_row_by_row(kind, dim):
    rng = np.random.default_rng(dim)
    rows = np.vstack([
        np.zeros(dim),
        np.full(dim, 1e-300),
        rng.standard_normal((3, dim)),
        # mixed scales within a row
        rng.standard_normal((4, dim)) * 10.0 ** rng.integers(-300, 300, (4, dim)),
        rng.standard_normal((2, dim)) * 1e300,
    ])
    rows[2, 0] = 0.0
    got = norm_rows(rows, kind)
    assert got.shape == (rows.shape[0],)
    np.testing.assert_array_equal(got, [norm(x, kind) for x in rows])


def test_norm_rows_rejects_non_finite_and_unknown_kind():
    rows = np.array([[1.0, 2.0], [float("inf"), 0.0]])
    for kind in ("max", "euclidean", "sum"):
        with pytest.raises(ValueError, match="non-finite"):
            norm_rows(rows, kind)
    with pytest.raises(ValueError, match="norm kind"):
        norm_rows(rows[:1], "manhattan")


def test_norm_rows_checks_the_kind_before_the_rows():
    # the kind is checked first, so a typo is named even for rows that
    # would fail, and for rows that are not numbers at all
    with pytest.raises(ValueError, match="unknown norm kind: 'l2'"):
        norm_rows(np.array([[float("nan")]]), "l2")
    with pytest.raises(ValueError, match="unknown norm kind: 'l2'"):
        norm_rows([["a"]], "l2")


def test_as_state_validation():
    x = as_state([1.0, 2.0], dim=2)
    assert not x.flags.writeable
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_state([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="non-finite"):
        as_state([1.0, float("inf")])
    with pytest.raises(ValueError, match="1-D"):
        as_state([[1.0], [2.0]])
    with pytest.raises(ValueError, match="^non-finite target$"):
        as_state([1.0, float("nan"), 1.0], 3, what="target")


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
    # a row holding NaN lies outside every domain, the full space too
    assert DomainSpec.full_space(2).contains_rows(rows).tolist() == [True, True, False, True]
    assert orthant.contains_unchecked(rows[[0, 3]])
    assert not orthant.contains_unchecked(rows[[0, 1]])


# The per-kind formulas that DomainSpec had before every domain became a
# box, kept as the oracle of the box formulas.  kind is "orthant", "box" or
# "full"; lo and hi are the box's bounds.
def _kind_contains_unchecked(kind, lo, hi, x):
    if kind == "orthant":
        return bool(x.min() >= 0.0)
    if kind == "box":
        return bool(np.all(x >= lo) and np.all(x <= hi))
    return True


def _kind_contains_rows(kind, lo, hi, rows):
    if kind == "orthant":
        return np.all(rows >= 0.0, axis=1)
    if kind == "box":
        return np.all((rows >= lo) & (rows <= hi), axis=1)
    return np.ones(rows.shape[0], dtype=bool)


def _kind_is_interior(kind, lo, hi, x):
    x = as_state(x, len(lo))
    if kind == "orthant":
        return bool(np.all(x > 0.0))
    if kind == "box":
        return bool(np.all(x > lo) and np.all(x < hi))
    return True


def _kind_project(kind, lo, hi, x):
    x = np.asarray(x, dtype=float)
    if kind == "orthant":
        return np.maximum(x, 0.0)
    if kind == "box":
        return np.clip(x, lo, hi)
    return x


_INF = math.inf
_ORACLE_DOMAINS = [
    ("orthant", [0.0] * 3, [_INF] * 3),
    ("orthant", [0.0], [_INF]),
    ("full", [-_INF] * 3, [_INF] * 3),
    ("full", [-_INF], [_INF]),
    ("box", [0.0, -1.0, 0.5], [1.0, 2.0, 3.0]),
    ("box", [-1.0, 0.0, -_INF], [1.0, _INF, 2.0]),
    ("box", [0.0] * 3, [_INF] * 3),
    ("box", [-_INF] * 3, [_INF] * 3),
    ("box", [-_INF, -_INF, 0.5], [-1.0, _INF, _INF]),
    # degenerate: lo == hi in some or all components
    ("box", [1.0, 0.0, -0.0], [1.0, 2.0, 0.0]),
    ("box", [0.5], [0.5]),
    ("box", [-0.0, 2.0], [0.0, 2.0]),
]


def _oracle_domain(kind, lo, hi):
    return {"orthant": lambda: DomainSpec.nonnegative_orthant(len(lo)),
            "full": lambda: DomainSpec.full_space(len(lo)),
            "box": lambda: DomainSpec.box(lo, hi)}[kind]()


def _oracle_rows(lo, hi):
    """Every state whose components come from the bounds, points beside
    them, signed zeros, +-inf and NaN: an ``(n, d)`` array."""
    # keyed by sign too, so that -0.0 and 0.0 are both kept
    values = {(v, math.copysign(1.0, v)): v
              for v in (*lo, *hi, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, _INF, -_INF)}
    values = [values[key] for key in sorted(values)] + [math.nan]
    grids = np.meshgrid(*[values] * len(lo), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.mark.parametrize("kind, lo, hi", _ORACLE_DOMAINS)
def test_box_formulas_match_the_per_kind_formulas(kind, lo, hi):
    domain = _oracle_domain(kind, lo, hi)
    assert domain.lo == tuple(lo) and domain.hi == tuple(hi) and domain.dim == len(lo)
    rows = _oracle_rows(lo, hi)
    nan = np.isnan(rows)
    # a state holding NaN lies outside every domain; the full space alone
    # accepted one before
    expected = _kind_contains_rows(kind, lo, hi, rows) & ~nan.any(axis=1)
    np.testing.assert_array_equal(domain.contains_rows(rows), expected)
    finite = np.isfinite(rows).all(axis=1)
    for x, inside, ok in zip(rows, expected.tolist(), finite.tolist()):
        assert domain.contains_unchecked(x) is inside
        if ok:
            assert domain.contains(x) is inside
            assert domain.is_interior(x) is _kind_is_interior(kind, lo, hi, x)
        else:
            with pytest.raises(ValueError, match="non-finite"):
                domain.contains(x)
            with pytest.raises(ValueError, match="non-finite"):
                domain.is_interior(x)
    # whole arrays (n, d) and blocks (b, n, d) of rows, many of them inside
    rng = np.random.default_rng(len(rows))
    pools = (np.arange(len(rows)), np.flatnonzero(expected))
    for k in range(400):
        pick = rows[rng.choice(pools[k % 2], size=6)]
        if k % 4 == 3:
            pick[rng.integers(6)] = rows[rng.integers(len(rows))]
        for x in (pick, pick.reshape(2, 3, -1), pick.reshape(3, 2, -1)):
            want = (_kind_contains_unchecked(kind, lo, hi, x)
                    and not np.isnan(x).any())
            assert domain.contains_unchecked(x) is want
    # the projection, bit for bit: signed zeros, infinities and NaN included
    for x in (rows, rows[len(rows) // 2], rows[:10].reshape(2, 5, -1)):
        got, want = domain.project(x), _kind_project(kind, lo, hi, x)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_orthant_and_full_space_are_boxes():
    for d in (1, 3):
        assert DomainSpec.nonnegative_orthant(d) == DomainSpec.box([0.0] * d, [_INF] * d)
        assert DomainSpec.full_space(d) == DomainSpec.box([-_INF] * d, [_INF] * d)
        assert hash(DomainSpec.nonnegative_orthant(d)) == hash(DomainSpec.box([0] * d,
                                                                              [_INF] * d))
    assert DomainSpec.nonnegative_orthant(2) != DomainSpec.full_space(2)


def test_domain_rejects_bounds_that_are_not_two_vectors_of_one_length():
    with pytest.raises(ValueError, match="one positive length"):
        DomainSpec.nonnegative_orthant(0)
    with pytest.raises(ValueError, match="one positive length"):
        DomainSpec.box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="one positive length"):
        DomainSpec([[0.0]], [[1.0]])


def test_evaluate_rows_fallback_stops_at_the_first_failing_row():
    seen = []

    def evaluate(x):
        seen.append(float(x[0]))
        if x[0] > 5.0:
            raise ValueError("too big")
        return 2.0 * x

    f = MapModel(dimension=1, evaluate=evaluate, domain=DomainSpec.full_space(1))
    np.testing.assert_array_equal(f.evaluate_rows(np.array([[1.0], [2.0]])), [[2.0], [4.0]])
    seen.clear()
    with pytest.raises(ValueError) as err:
        f.evaluate_rows(np.array([[1.0], [6.0], [3.0], [7.0]]))
    assert str(err.value) == "evaluation failed at row 1: ValueError: too big"
    assert seen == [1.0, 6.0]


@pytest.mark.parametrize("image, shape", [(lambda x: 0.5 * float(x[0]), ()),
                                          (lambda x: 0.5 * x[:2], (2,)),
                                          (lambda x: np.tile(x, 2), (6,))],
                         ids=["scalar", "short", "long"])
def test_evaluate_rows_fallback_rejects_an_image_of_the_wrong_size(image, shape):
    # storing the image in its row would broadcast a scalar and fail on the
    # others with a numpy message that names no row
    f = MapModel(dimension=3, evaluate=image, domain=DomainSpec.full_space(3))
    with pytest.raises(ValueError) as err:
        f.evaluate_rows(np.ones((4, 3)))
    assert str(err.value) == (f"evaluation failed at row 0: ValueError: the map gave an image "
                              f"of shape {shape}, but the model has dimension 3")


def test_evaluate_rows_rejects_a_batch_image_of_the_wrong_shape():
    # a one-column batch image would be read as three times too few states
    f = MapModel(dimension=3, evaluate=lambda x: 0.5 * np.asarray(x, float),
                 evaluate_batch=lambda rows: 0.5 * rows[:, :1],
                 domain=DomainSpec.full_space(3))
    with pytest.raises(ValueError) as err:
        f.evaluate_rows(np.ones((4, 3)))
    assert str(err.value) == "the map gave an image of shape (4, 1), but the model has dimension 3"


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        DomainSpec.nonnegative_orthant(2).contains([1, 2, 3])


def test_box_invariants():
    with pytest.raises(ValueError, match="lo <= hi"):
        DomainSpec.box([1.0], [0.0])


@pytest.mark.parametrize("lo, hi", [([0.0, math.nan], [1.0, 1.0]), ([0.0], [math.nan]),
                                    ([math.nan], [math.nan])])
def test_box_rejects_nan_bounds(lo, hi):
    # a box with a NaN bound contains no state
    with pytest.raises(ValueError, match="lo <= hi"):
        DomainSpec.box(lo, hi)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_check_tol_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
        check_tol(tol)


def test_check_tol_accepts_a_positive_tolerance():
    assert check_tol(1e-300) is None


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


@pytest.mark.parametrize("jacobian, shape", [
    (lambda x: 0.5, ()), (lambda x: [0.5], (1,)), (lambda x: [[0.5, 0.5]], (1, 2)),
    # finite differences of an image of two components
    (None, (2, 1)),
])
def test_jacobian_at_rejects_a_jacobian_of_the_wrong_shape(jacobian, shape):
    # a scalar or a vector would be broadcast over the (1, 1) matrix
    f = MapModel(dimension=1, evaluate=lambda x: np.array([0.5, 0.5]) * x[0],
                 jacobian=jacobian, domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError) as err:
        f.jacobian_at(np.array([1.0]))
    assert str(err.value) == (f"the map gave a Jacobian of shape {shape}, "
                              f"but the model has dimension 1")


def test_map_model_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        MapModel(dimension=2, evaluate=lambda x: x,
                 domain=DomainSpec.nonnegative_orthant(3))


def _signs_and_specials(x):
    # 2*x0 overflows, -x1 flips the sign of a zero, x0*x2 makes NaN of 0*inf
    x = np.asarray(x, float)
    return np.array([2.0 * x[0], -x[1], x[0] * x[2]])


def test_derived_float_step_equals_evaluate_bitwise():
    f = MapModel(dimension=3, evaluate=_signs_and_specials, domain=DomainSpec.full_space(3))
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
    rows = rng.choice(specials + list(rng.uniform(-10.0, 10.0, 8)), (500, 3))
    with np.errstate(all="ignore"):
        floats = np.array([f.evaluate_floats(tuple(x.tolist())) for x in rows], dtype=float)
        alone = np.array([f.evaluate(x) for x in rows])
    np.testing.assert_array_equal(floats.view(np.uint64), alone.view(np.uint64))
    # every special value and a signed zero of each sign come out
    assert np.isnan(alone).any() and np.isinf(alone).any()
    assert np.signbit(alone[alone == 0.0]).any() and not np.signbit(alone[alone == 0.0]).all()


def test_derived_float_step_gives_floats_and_keeps_a_given_step():
    # a list of ints from evaluate becomes a list of floats
    f = MapModel(dimension=2, evaluate=lambda x: [int(v) for v in 0.5 * x],
                 domain=DomainSpec.full_space(2))
    assert f.evaluate_floats((9.0, 4.0)) == [4.0, 2.0]
    assert {type(v) for v in f.evaluate_floats((9.0, 4.0))} == {float}

    def own(y):
        return (y[0], y[1])

    assert MapModel(dimension=2, evaluate=lambda x: x, domain=DomainSpec.full_space(2),
                    evaluate_floats=own).evaluate_floats is own


@pytest.mark.parametrize("error", [OverflowError("too many"), ValueError("bad state"),
                                   ZeroDivisionError("division by zero")])
def test_derived_float_step_raises_what_evaluate_raises(error):
    def evaluate(x):
        raise error

    f = MapModel(dimension=1, evaluate=evaluate, domain=DomainSpec.full_space(1))
    with pytest.raises(type(error)) as err:
        f.evaluate_floats((1.0,))
    assert err.value is error


def test_replacing_evaluate_derives_the_float_step_again(lpa):
    # dataclasses.replace passes the old derived step on; it is derived
    # again from the new evaluate, while a given step is kept
    half = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),
                    domain=DomainSpec.full_space(1))
    quarter = dataclasses.replace(half, evaluate=lambda x: 0.25 * np.asarray(x, float))
    assert (half.evaluate_floats((1.0,)), quarter.evaluate_floats((1.0,))) == ([0.5], [0.25])
    assert dataclasses.replace(half, name="half").evaluate_floats is half.evaluate_floats
    assert dataclasses.replace(lpa, name="lpa2").evaluate_floats is lpa.evaluate_floats
