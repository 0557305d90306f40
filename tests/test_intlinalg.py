from fractions import Fraction

import pytest

from pgraphs import _intlinalg as la


def test_rational_rank():
    assert la.rational_rank([(1, 0), (0, 1)]) == 2
    assert la.rational_rank([(1, 1), (2, 2)]) == 1
    assert la.rational_rank([(1, 0), (1, 1), (0, 1)]) == 2
    assert la.rational_rank([]) == 0


def test_solve_unique():
    assert la.solve_unique([(2, 0), (0, 4)], (6, 8)) == [3, 2]
    assert la.solve_unique([(1, 1), (2, 2)], (1, 3)) is None  # inconsistent
    assert la.solve_unique([(1, 1), (2, 2)], (1, 2)) is None  # underdetermined
    sol = la.solve_unique([(1,), (1,)], (Fraction(1, 2), Fraction(1, 2)))
    assert sol == [Fraction(1, 2)]


def test_kernel_basis():
    assert la.kernel_basis([(1, 0), (0, 1)], 2) == []
    assert la.kernel_basis([(1, 0), (1, 0)], 2) == [(0, 1)]
    # kernel of a single row spanning a rank-2 lattice
    basis = la.kernel_basis([(1, 1, 1)], 3)
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0


def test_zero_in_convex_hull():
    def zero_in_hull(points):
        return not any(la.min_norm_point(points))

    assert zero_in_hull([(1, 1), (-1, 0), (0, -1)])
    assert not zero_in_hull([(1, 0), (0, 1)])
    assert zero_in_hull([(2, 0), (-1, 0)])
    assert zero_in_hull([(0, 0)])
    assert not zero_in_hull([(1, 0), (2, 1), (1, 3)])


def test_min_norm_point():
    half = Fraction(1, 2)
    assert la.min_norm_point([(1, 0), (0, 1)]) == (half, half)
    assert la.min_norm_point([(1, 0), (2, 1), (1, 3)]) == (1, 0)
    assert la.min_norm_point([(3, 4)]) == (3, 4)
    assert la.min_norm_point([(2, 0), (0, 2), (2, 0)]) == (1, 1)  # repeated point
    p = (Fraction(201, 40405), Fraction(2, 40405))
    assert la.min_norm_point([(1, -100), (-1, 101)]) == p


def test_primitive():
    assert la.primitive((Fraction(1, 2), Fraction(1, 2))) == (1, 1)
    assert la.primitive((Fraction(201, 40405), Fraction(2, 40405))) == (201, 2)
    assert la.primitive((Fraction(-4, 3), 2)) == (-2, 3)
    assert la.primitive((0, 6, -9)) == (0, 2, -3)


def test_image_solver():
    solver = la.ImageSolver([(1, 1), (1, -1)], 2)
    assert solver.preimage((2, 0)) == (1, 1)
    assert solver.preimage((1, 0)) is None  # half-integral
    assert solver.preimage((0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        la.ImageSolver([(1, 1), (2, 2)], 2)  # rank deficient
