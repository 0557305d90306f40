from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pgraphs import _intlinalg
from pgraphs.errors import DimensionMismatch
from pgraphs.flat_core import (
    FlatGroupSpec,
    SubmultClass,
    make_spec,
    module_delta,
    rho,
    scale,
    submultiplicativity_class,
    uniscalar_kernel,
)

SPEC_5_1 = make_spec([(1, 0), (0, 1)], [2, 2])
SPEC_5_2 = make_spec([(1, 0), (1, 1), (0, 1)], [2, 2, 2])
SPEC_5_3 = make_spec([(1, 1), (1, -1)], [2, 2])

coords2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec([(0, 0)], [2])  # zero row
    with pytest.raises(ValueError):
        make_spec([(1, 0)], [1])  # scale below 2
    with pytest.raises(ValueError):
        FlatGroupSpec(rank=0, components=1, weights=((1,),), relative_scales=(2,))


def test_rho_examples():
    assert rho(SPEC_5_3, (2, 1)) == (3, 1)
    assert rho(SPEC_5_3, (0, 0)) == (0, 0)
    # hand matrix-vector product: rows (1,0),(1,1),(0,1) applied to (1,1)
    assert rho(SPEC_5_2, (1, 1)) == (1, 2, 1)


def test_rho_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rho(SPEC_5_2, (1, 2, 3))


def test_scale_examples():
    assert scale(SPEC_5_1, (2, -1)) == 4
    assert scale(SPEC_5_1, (0, 0)) == 1
    # rho(1,-2) = (-1, 3) so only the second component expands
    assert rho(SPEC_5_3, (1, -2)) == (-1, 3)
    assert scale(SPEC_5_3, (1, -2)) == 8


def test_scale_one_iff_nonexpanding():
    for x in [(-3, 0), (0, -5), (-1, -1)]:
        assert scale(SPEC_5_1, x) == 1
    assert scale(SPEC_5_1, (1, -7)) == 2


def test_module_delta_examples():
    # two scale evaluations: s(1,0) = 4, s(-1,0) = 1
    assert scale(SPEC_5_3, (1, 0)) == 4
    assert scale(SPEC_5_3, (-1, 0)) == 1
    assert module_delta(SPEC_5_3, (1, 0)) == Fraction(4)
    assert module_delta(SPEC_5_3, (0, 0)) == 1


@given(coords2)
def test_module_delta_inverse(x):
    assert module_delta(SPEC_5_3, x) * module_delta(SPEC_5_3, tuple(-c for c in x)) == 1


def test_submultiplicativity_examples():
    x, y = (1, 0), (0, -1)
    assert rho(SPEC_5_3, x) == (1, 1) and rho(SPEC_5_3, y) == (-1, 1)
    assert submultiplicativity_class(SPEC_5_3, x, y) is SubmultClass.STRICT
    xy = (1, -1)
    assert scale(SPEC_5_3, xy) == 4 < scale(SPEC_5_3, x) * scale(SPEC_5_3, y) == 8

    assert submultiplicativity_class(SPEC_5_3, (3, 1), (0, 0)) is SubmultClass.EQUAL

    x, y = (1, 0), (0, 1)
    assert submultiplicativity_class(SPEC_5_1, x, y) is SubmultClass.EQUAL
    assert scale(SPEC_5_1, (1, 1)) == scale(SPEC_5_1, x) * scale(SPEC_5_1, y) == 4


SPEC_MIXED = make_spec([(1, 0), (0, 1)], [2, 3])


@pytest.mark.parametrize(
    "spec",
    [SPEC_5_1, SPEC_5_2, SPEC_5_3, SPEC_MIXED],
    ids=["5_1", "5_2", "5_3", "mixed"],
)
@given(x=coords2, y=coords2)
def test_invariants(spec, x, y):
    xy = tuple(a + b for a, b in zip(x, y))
    assert rho(spec, xy) == tuple(a + b for a, b in zip(rho(spec, x), rho(spec, y)))
    lhs, rhs = scale(spec, xy), scale(spec, x) * scale(spec, y)
    assert lhs <= rhs
    cls = submultiplicativity_class(spec, x, y)
    assert (lhs == rhs) == (cls is SubmultClass.EQUAL)
    assert module_delta(spec, xy) == module_delta(spec, x) * module_delta(spec, y)
    uniscalar = scale(spec, x) == 1 and scale(spec, tuple(-c for c in x)) == 1
    assert uniscalar == all(r == 0 for r in rho(spec, x))


def test_uniscalar_kernel_examples():
    assert uniscalar_kernel(SPEC_5_2) == []
    assert uniscalar_kernel(SPEC_5_3) == []
    degenerate = make_spec([(1, 0), (1, 0)], [2, 2])
    assert uniscalar_kernel(degenerate) == [(0, 1)]
    # the basis is reduced once per spec, and every call gets its own list
    uniscalar_kernel(degenerate).append((9, 9))
    assert uniscalar_kernel(degenerate) == [(0, 1)]


@given(
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_lattice_is_saturated(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    basis = _intlinalg.kernel_basis(rows, 3)
    for b in basis:
        assert all(_intlinalg.dot(r, b) == 0 for r in rows)
    # every integer kernel point in a box must be an integer combination
    from itertools import product

    for x in product(range(-2, 3), repeat=3):
        if any(_intlinalg.dot(r, x) != 0 for r in rows):
            continue
        if not basis:
            assert x == (0, 0, 0)
            continue
        # solve x = sum c_i * basis_i exactly; coefficients must be integers
        mat = [[b[i] for b in basis] for i in range(3)]
        sol = _intlinalg.solve_scaled(mat, list(x))
        assert sol is not None
        y, d = sol
        assert all(Fraction(c, d).denominator == 1 for c in y)
