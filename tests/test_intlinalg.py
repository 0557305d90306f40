import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, strategies as st

from pgraphs import _intlinalg as la


# ---------------------------------------------------------------------------
# Reference oracles: the Fraction Gauss-Jordan solver, which the integer
# kernel must reproduce exactly, not just equivalently, and the Fraction
# Caratheodory search for the min-norm point of a convex hull, which is 0
# exactly when the phase-1 simplex refuses.


def fraction_rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / prow[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def fraction_solve_unique(matrix, rhs):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(map(Fraction, matrix[i])) + [Fraction(rhs[i])] for i in range(nrows)]
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for i in range(nrows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][ncols] != 0 for i in range(row, nrows)):
        return None
    return [aug[i][ncols] for i in range(ncols)]


def fraction_min_norm_point(points):
    pts = list(points)
    dim = len(pts[0])
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            gram = [[la.dot(s, t) for t in subset] + [1] for s in subset]
            gram.append([1] * size + [0])
            sol = fraction_solve_unique(gram, [0] * size + [1])
            if sol is None or any(c < 0 for c in sol[:size]):
                continue
            p = tuple(sum(c * s[i] for c, s in zip(sol, subset)) for i in range(dim))
            norm2 = la.dot(p, p)
            if all(la.dot(q, p) >= norm2 for q in pts):
                return p
    raise AssertionError("no Caratheodory subset met the KKT conditions")


def fraction_independent_rows(rows):
    chosen = []
    for i, r in enumerate(rows):
        if fraction_rank([rows[j] for j in chosen] + [r]) == len(chosen) + 1:
            chosen.append(i)
    return chosen


def det(m):
    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))

    return sum(sign(p) * prod(m[i][p[i]] for i in range(len(m))) for p in permutations(range(len(m))))


def random_system(rng):
    """A seeded random system: square, over- or underdetermined, with
    dependent rows or zero columns mixed in, and an int or Fraction rhs
    that is consistent about half the time."""
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 4)
    rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:  # dependent row
        a, b = rng.choice(rows), rng.choice(rows)
        rows.insert(rng.randrange(len(rows) + 1), [2 * x - y for x, y in zip(a, b)])
    if rows and rng.random() < 0.1:  # zero column
        col = rng.randrange(ncols)
        for r in rows:
            r[col] = 0
    if rng.random() < 0.5:  # consistent: rhs in the column space
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    else:
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in rows]
    if rng.random() < 0.5 and all(c.denominator == 1 for c in map(Fraction, rhs)):
        rhs = [int(c) for c in rhs]
    return rows, rhs


def test_rational_rank():
    assert la.rational_rank([(1, 0), (0, 1)]) == 2
    assert la.rational_rank([(1, 1), (2, 2)]) == 1
    assert la.rational_rank([(1, 0), (1, 1), (0, 1)]) == 2
    assert la.rational_rank([]) == 0


def test_solve_scaled():
    assert la.solve_scaled([(2, 0), (0, 4)], (6, 8)) == ([24, 16], 8)
    assert la.solve_scaled([(2,), (4,)], (1, 2)) == ([1], 2)
    assert la.solve_scaled([(1, 1), (2, 2)], (1, 3)) is None  # inconsistent
    assert la.solve_scaled([(1, 1), (2, 2)], (1, 2)) is None  # underdetermined


def test_kernel_basis():
    assert la.kernel_basis([(1, 0), (0, 1)], 2) == []
    assert la.kernel_basis([(1, 0), (1, 0)], 2) == [(0, 1)]
    # kernel of a single row spanning a rank-2 lattice
    basis = la.kernel_basis([(1, 1, 1)], 3)
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0


@given(st.data())
def test_hermite_box_holds_one_point_of_each_coset(data):
    k = data.draw(st.integers(1, 3), label="k")
    vectors = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * k), min_size=k, max_size=k),
                        label="vectors")
    assume(la.rational_rank(vectors) == k)
    columns = [list(c) for c in zip(*vectors)]  # the vectors as columns
    adj, d = la.adjugate(columns)
    assert d > 0 and all(la.dot(row, col) == d * (i == j)
                         for i, row in enumerate(columns) for j, col in enumerate(zip(*adj)))
    # y and z share a coset exactly when A (y - z) is divisible by d
    box = la.hermite_diagonal(vectors)
    classes = {tuple(la.dot(row, y) % d for row in adj) for y in product(*map(range, box))}
    assert prod(box) == d == len(classes)


def test_zero_in_convex_hull():
    def zero_in_hull(points):
        return assert_gordan_decision(points) is not None

    assert zero_in_hull([(1, 1), (-1, 0), (0, -1)])
    assert not zero_in_hull([(1, 0), (0, 1)])
    assert zero_in_hull([(2, 0), (-1, 0)])
    assert zero_in_hull([(0, 0)])
    assert not zero_in_hull([(1, 0), (2, 1), (1, 3)])


def test_image_solver():
    solver = la.ImageSolver([(1, 1), (1, -1)], 2)
    assert solver.preimage((2, 0)) == (1, 1)
    assert solver.preimage((1, 0)) is None  # half-integral
    assert solver.preimage((0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        la.ImageSolver([(1, 1), (2, 2)], 2)  # rank deficient


def test_solve_scaled_and_rank_match_the_fraction_oracle():
    rng = random.Random(8)
    outcomes = {"solved": 0, "none": 0, "int rhs": 0, "square": 0, "over": 0, "under": 0}
    for _ in range(2500):
        rows, rhs = random_system(rng)
        den = lcm(*(Fraction(b).denominator for b in rhs))
        want = fraction_solve_unique(rows, rhs)
        sol = la.solve_scaled(rows, [int(b * den) for b in rhs])
        assert (sol is None) == (want is None), (rows, rhs)
        if sol is not None:
            y, d = sol
            assert [Fraction(c, d * den) for c in y] == want, (rows, rhs)
            assert d > 0 and all(type(c) is int for c in y)
        assert la.rational_rank(rows) == fraction_rank(rows), rows
        assert la.independent_row_indices(rows) == fraction_independent_rows(rows), rows
        outcomes["solved" if want is not None else "none"] += 1
        outcomes["int rhs"] += all(type(c) is int for c in rhs)
        if rows:
            shape = len(rows) - len(rows[0])
            outcomes["square" if shape == 0 else "over" if shape > 0 else "under"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_solve_scaled_is_integral_over_a_positive_denominator():
    rng = random.Random(9)
    for _ in range(500):
        rows, rhs = random_system(rng)
        rhs = [int(c * 6) for c in map(Fraction, rhs)]
        sol = la.solve_scaled(rows, rhs)
        if sol is None:
            assert fraction_solve_unique(rows, rhs) is None
            continue
        y, d = sol
        assert d > 0 and all(type(c) is int for c in y)
        assert [la.dot(r, y) for r in rows] == [d * b for b in rhs]


def test_image_solver_matches_the_fraction_oracle():
    rng = random.Random(11)
    seen = {"hit": 0, "divisibility miss": 0}
    solvers = 0
    while solvers < 150:
        k = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(k, 5))]
        basis = fraction_independent_rows(rows)
        if len(basis) != k or abs(det([rows[i] for i in basis])) < 2:
            continue
        solvers += 1
        solver = la.ImageSolver(rows, k)
        assert solver.basis_idx == basis
        square = [rows[i] for i in basis]
        for _ in range(12):
            b = [la.dot(r, [rng.randint(-4, 4) for _ in range(k)]) for r in square]
            if rng.random() < 0.5:
                b[rng.randrange(k)] += rng.choice((-1, 1))
            sol = fraction_solve_unique(square, b)
            want = tuple(map(int, sol)) if all(c.denominator == 1 for c in sol) else None
            assert solver.preimage(b) == want, (rows, b)
            seen["hit" if want is not None else "divisibility miss"] += 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# Both sides of Gordan's alternative by the phase-1 simplex, against the
# Fraction min-norm point


def assert_gordan_decision(points):
    """The simplex refuses exactly when the min-norm point is 0, and each
    side's proof is checked on its own: a refusal's certificate has
    lam >= 0, sum(lam) = d > 0 and sum lam_i points_i = 0, and an
    admission's witness is a primitive integer vector strictly positive
    on every point."""
    cert = la.gordan_certificate(points)
    witness = la.gordan_witness(points)
    assert (cert is not None) == (not any(fraction_min_norm_point(points))), points
    assert (witness is None) == (cert is not None), points
    if cert is not None:
        lam, d = cert
        assert len(lam) == len(points) and all(type(c) is int and c >= 0 for c in lam)
        assert sum(lam) == d > 0
        assert all(sum(c * p[j] for c, p in zip(lam, points)) == 0
                   for j in range(len(points[0]))), (points, cert)
    else:
        assert len(witness) == len(points[0]) and all(type(c) is int for c in witness)
        assert gcd(*witness) == 1 and all(la.dot(p, witness) > 0 for p in points), points
    return cert


def test_gordan_certificate_examples():
    assert la.gordan_certificate([(1, 1), (-1, 0), (0, -1)]) == ((1, 1, 1), 3)
    assert la.gordan_certificate([(2, 0), (-1, 0)]) == ((1, 2), 3)
    assert la.gordan_certificate([(0, 0)]) == ((1,), 1)
    assert la.gordan_certificate([(1, 2), (-2, -4), (1, 2)]) == ((2, 1, 0), 3)
    assert la.gordan_certificate([(1, 0), (0, 1)]) is None
    assert la.gordan_certificate([(1, -100), (-1, 101)]) is None


def test_gordan_witness_examples():
    # the dual of the final basis: not the min-norm direction, e.g. (4, -1)
    # where the min-norm point is (1, 0)
    assert la.gordan_witness([(1, 0), (0, 1)]) == (1, 1)
    assert la.gordan_witness([(1, 0), (2, 1), (1, 3)]) == (4, -1)
    assert la.gordan_witness([(2, 0), (0, 2), (2, 0)]) == (1, 1)  # repeated point
    assert la.gordan_witness([(1, -100), (-1, 101)]) == (201, 2)
    assert la.gordan_witness([(-2,), (-1,)]) == (-1,)
    assert la.gordan_witness([(1, 1), (-1, 0), (0, -1)]) is None
    assert la.gordan_witness([(0, 0)]) is None


def test_gordan_certificate_on_every_row_triple_of_a_small_grid():
    # every start basis is degenerate (the right-hand side is 0 on all
    # rows but one), and the grid holds every repeated, antipodal and
    # collinear triple of its rows
    rows = [r for r in product(range(-2, 3), repeat=2) if any(r)]
    refused = sum(assert_gordan_decision(pts) is not None for pts in product(rows, repeat=3))
    assert 0 < refused < len(rows) ** 3


@given(st.data())
def test_gordan_certificate_on_repeated_and_antipodal_rows(data):
    rank = data.draw(st.integers(1, 4), label="rank")
    row = st.tuples(*[st.integers(-3, 3)] * rank)
    points = data.draw(st.lists(row, min_size=1, max_size=4), label="rows")
    copies = data.draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from((-2, -1, 1, 2))),
                                max_size=5), label="copies")
    for i, m in copies:  # repeat, scale or negate an earlier row
        points.append(tuple(m * c for c in points[i % len(points)]))
    assert_gordan_decision(data.draw(st.permutations(points), label="order"))


def test_pivot_is_the_elimination_step():
    # two steps by hand; the second divides by the first pivot exactly,
    # and the last entry is det = 51, a minor as Bareiss promises
    mat = [[2, 1, 3], [4, -1, 0], [1, 5, 2]]
    p = la._pivot(mat, 0, 0, 1)
    assert p == 2 and mat == [[2, 1, 3], [0, -6, -12], [0, 9, 1]]
    assert la._pivot(mat, 1, 1, p) == -6 and mat == [[-6, 0, -3], [0, -6, -12], [0, 0, 51]]
