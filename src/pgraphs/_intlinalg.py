"""Exact integer and rational linear algebra on small dense matrices.

Matrices are sequences of rows of Python ints (arbitrary precision);
nothing is ever rounded.  Every solve, rank and independent-row query
runs through one fraction-free elimination, `_eliminate`, and the
phase-1 simplex `_phase1` runs on a fraction-free tableau.  Both take
their steps with `_pivot`, whose entries stay integers and whose every
division is exact.  A rational solution comes back as integer
numerators over one positive denominator, and a caller divides by it
once, if at all; no rational number is built here.  The one phase-1
walk answers both sides of Gordan's alternative: `gordan_certificate`
reads the convex combination that puts 0 in the hull off its final
tableau, and `gordan_witness` the strictly positive direction off the
dual of its final basis.  The integer kernel lattice and the coset box
of a lattice (`kernel_basis`, `hermite_diagonal`) need unimodular
steps, not a rational solve, and share their own reduction, `_echelon`.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul, neg, sub
from typing import Sequence

Vec = tuple[int, ...]


def dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, row, x))


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(map(add, x, y))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(map(sub, x, y))


def vneg(x: Vec) -> Vec:
    return tuple(map(neg, x))


def _pivot(mat: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free pivot on mat[r][col], in place, returning the
    pivot p = mat[r][col].

    Row r stays as it is, and every other row becomes (p * row - row[col]
    * mat[r]) // prev, with prev the pivot before this one (1 at the
    start).  When the rows start as integers and every pivot is taken
    this way, each entry is a minor of the starting matrix (Bareiss,
    Math. Comp. 22, 1968; Edmonds, J. Res. NBS 71B, 1967), so every `//`
    is exact and no entry is ever a fraction.
    """
    prow = mat[r]
    p = prow[col]
    for i, row in enumerate(mat):
        if i != r:
            f = row[col]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
    return p


def _eliminate(mat: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Gauss-Jordan elimination without fractions (Bareiss), in place.

    Pivots on the first `ncols` columns of the integer rows `mat`: in each
    column the first row at or below the pivots found so far with a
    nonzero entry, and a column without one is skipped.  Each step is one
    `_pivot`, so every entry stays an integer.

    Returns the pivot columns and the last pivot d (1 when there is
    none), which is the determinant of the pivot block up to sign.  With
    r pivots, the first r rows end as d times the reduced row echelon
    form of the r pivot rows: d times the identity in the pivot columns.
    Every later row is zero in the pivot columns, and zero throughout
    exactly when it is a rational combination of the pivot rows.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prev = _pivot(mat, rank, col, prev)
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return pivots, prev


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    mat = [list(r) for r in rows]
    return len(_eliminate(mat, len(mat[0]) if mat else 0)[0])


def independent_row_indices(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the greedy maximal linearly independent subset of rows:
    each row that is independent of the rows before it.  These are the
    pivot columns of the transpose."""
    if not rows:
        return []
    mat = [list(col) for col in zip(*rows)]
    return _eliminate(mat, len(rows))[0]


def solve_scaled(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """Solve M y = rhs over the integers, up to one common denominator:
    (y, d) with M (y / d) = rhs and d > 0, when M has full column rank
    and the system is consistent.

    y is d times the unique rational solution, with d the determinant of
    the k rows `_eliminate` pivots on, up to sign, so y is integral by
    Cramer's rule and no division happens here; a caller that needs the
    rationals divides by d once.  Returns None if the system is
    inconsistent or underdetermined.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots, d = _eliminate(aug, ncols)
    if len(pivots) != ncols or any(row[ncols] != 0 for row in aug[ncols:]):
        return None  # rank-deficient or inconsistent
    y = [row[ncols] for row in aug[:ncols]]
    return (y, d) if d > 0 else ([-c for c in y], -d)


def _echelon(mat: list[list[int]], ncols: int) -> None:
    """Row echelon form of the first `ncols` columns by unimodular row
    steps (swaps and integer multiples of one row subtracted from
    another), in place; any later columns ride along.

    In each column the row of least nonzero magnitude at or below the
    pivots found so far becomes the pivot, and every row below it is
    reduced modulo it, until only the pivot is nonzero there.  The steps
    are invertible over the integers, so the rows span the same lattice
    throughout.
    """
    row = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(row, len(mat)) if mat[i][col] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(mat[i][col]))
            mat[row], mat[piv] = mat[piv], mat[row]
            prow = mat[row]
            done = True
            for i in range(row + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // prow[col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], prow)]
                    done = done and mat[i][col] == 0
            if done:
                row += 1
                break


def kernel_basis(rows: Sequence[Vec], ncols: int) -> list[Vec]:
    """Basis of the integer kernel lattice {x in Z^ncols : (rows) x = 0}.

    Row-reduces the transpose, with the identity alongside, by `_echelon`;
    the transform rows whose transpose part reaches zero form a lattice
    basis (not merely a rational one).
    """
    nr = len(rows)
    mat = [[row[i] for row in rows] + [int(i == j) for j in range(ncols)] for i in range(ncols)]
    _echelon(mat, nr)
    basis = [tuple(r[nr:]) for r in mat if not any(r[:nr])]
    return sorted(_sign_normal(b) for b in basis)


def hermite_diagonal(vectors: Sequence[Vec]) -> list[int]:
    """|h_11|, ..., |h_kk| for a triangular basis h_1, ..., h_k of the
    lattice L spanned by k independent vectors of Z^k.

    `_echelon` turns the vectors into such a basis, h_i zero before
    coordinate i.  The box of y with 0 <= y_i < |h_ii| holds exactly one
    point of each coset of L in Z^k: reducing coordinate 1 by h_1, then
    coordinate 2 by h_2, and so on, brings any point into the box, and
    two box points differ by no nonzero point of L, whose first nonzero
    coefficient c_i on the h_i would give a coordinate i of magnitude at
    least |h_ii|.  So the product is [Z^k : L] = |det|.
    """
    mat = [list(v) for v in vectors]
    _echelon(mat, len(mat))
    return [abs(row[i]) for i, row in enumerate(mat)]


def _sign_normal(v: Vec) -> Vec:
    lead = next((x for x in v if x != 0), 0)
    return vneg(v) if lead < 0 else v


def _phase1(points: Sequence[Vec]) -> tuple[list[int], list[list[int]], int]:
    """Phase 1 of the simplex method on lam >= 0, sum(lam) = 1,
    P^T lam = 0, run to its optimum: the final basis, tableau and last
    pivot d.  0 lies in the convex hull of `points` exactly when the
    optimum, the tableau's last entry, is 0.

    There are dim + 1 rows, one column per point, and one artificial
    variable per row, which starts as the basis.  The phase-1 cost is
    the sum of the artificials; it is 0 at a basis exactly when that
    basis is a feasible lam, and the system is infeasible exactly when
    the cost stays positive at the optimum.  The tableau is
    fraction-free: each entry is d times its rational value, with d the
    last pivot, which is the basis determinant and stays positive
    because every simplex pivot is.  The cost row is carried below the
    constraint rows and pivoted with them.  An artificial that leaves
    the basis is never needed again, so the artificials have no columns;
    `basis` names the variable of each row, lam_j as j and the
    artificial of row r as q + r.

    Bland's rule picks both the entering and the leaving variable (the
    smallest index among the candidates), so the walk terminates even
    though the start basis is degenerate (Bland, Math. Oper. Res. 2,
    1977).  A cycle would have to keep every artificial it starts with,
    so it would run on one fixed tableau, where Bland's rule cannot
    cycle.
    """
    q, dim = len(points), len(points[0])
    mat = [[1] * q + [1]] + [[p[j] for p in points] + [0] for j in range(dim)]
    # the cost row: d times each reduced cost, then -d times the cost
    mat.append([-sum(col) for col in zip(*mat)])
    basis = list(range(q, q + dim + 1))
    d = 1
    while mat[-1][q]:
        cost = mat[-1]
        enter = next((j for j in range(q) if cost[j] < 0), None)
        if enter is None:
            break  # the cost stays positive: 0 is not in the hull
        leave = None
        for r in range(dim + 1):
            a = mat[r][enter]
            if a > 0:
                if leave is None:
                    leave = r
                    continue
                lhs, rhs = mat[r][q] * mat[leave][enter], mat[leave][q] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        basis[leave] = enter
        d = _pivot(mat, leave, enter, d)
    return basis, mat, d


def gordan_certificate(points: Sequence[Vec]) -> tuple[Vec, int] | None:
    """Integers (lam, d) with lam >= 0, sum(lam) = d > 0 and
    sum lam_i points_i = 0 when 0 lies in the convex hull of `points`,
    and None when it does not.  lam is read off the final basis of
    `_phase1`, whose last pivot is d."""
    q = len(points)
    basis, mat, d = _phase1(points)
    if mat[-1][q]:
        return None
    lam = [0] * q
    for r, j in enumerate(basis):
        if j < q:
            lam[j] = mat[r][q]
    return tuple(lam), d


def gordan_witness(points: Sequence[Vec]) -> Vec | None:
    """The other side of Gordan's alternative: a primitive integer w with
    w.p > 0 for every point p when 0 lies outside the convex hull of
    `points`, and None when it lies inside.

    The witness is the dual of `_phase1`'s optimal basis B (Schrijver,
    Theory of Linear and Integer Programming, 1986, 7.8).  Its columns
    are (1, p_j) for a basic lam_j and the unit vector e_r for the
    basic artificial of row r, with cost 0 and 1.  The dual y = (t, x)
    solves B^T y = c_B, and at the optimum t equals the positive cost
    and every reduced cost -(t + x.p_j) is >= 0.  So x.p_j <= -t < 0 for
    every point, and -x, divided by the gcd of its entries, is the
    witness.  `solve_scaled` gives y times a positive denominator, which
    is all the direction needs.
    """
    q = len(points)
    basis, mat, _ = _phase1(points)
    if not mat[-1][q]:
        return None
    n = len(basis)
    rows = [(1, *points[j]) if j < q else tuple(int(i == j - q) for i in range(n)) for j in basis]
    y, _ = solve_scaled(rows, [int(j >= q) for j in basis])
    g = gcd(*y[1:])
    return tuple(-c // g for c in y[1:])


def adjugate(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(A, d) with M A = d I and d = |det M| > 0, for a nonsingular
    square integer matrix M: A = d M^-1 is the adjugate of M up to sign.

    One `_eliminate` of [M | I] leaves the last pivot, det M up to sign,
    times I on the left and the same multiple of M^-1 on the right.
    """
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    _, det = _eliminate(aug, n)
    sign = 1 if det > 0 else -1
    return [[sign * c for c in row[n:]] for row in aug], sign * det


class ImageSolver:
    """Solves B x = b for x in Z^k, with B the greedy independent rows of a
    matrix W (q x k) of full column rank.

    B is invertible, so the image W x is fixed by its coordinates B x.  A
    caller can walk candidate coordinates b, solve B x = b, and form W x
    from each integral x.  At construction the solver eliminates [B | I]
    once (`adjugate`), which gives d B^-1, the integer adjugate of B up
    to sign.  A solve is then an integer matrix-vector product and one
    exact-division test by d > 0.
    """

    def __init__(self, rows: Sequence[Vec], ncols: int):
        self.basis_idx = independent_row_indices(rows)
        if len(self.basis_idx) != ncols:
            raise ValueError("matrix does not have full column rank")
        self._adj, self._det = adjugate([rows[i] for i in self.basis_idx])

    def preimage(self, b: Sequence[int]) -> Vec | None:
        """The integer x with B x = b, or None when adj(B) b is not
        divisible by det(B), that is, when B^-1 b is not integral."""
        det = self._det
        x = []
        for row in self._adj:
            num, rem = divmod(sum(map(mul, row, b)), det)
            if rem:
                return None
            x.append(num)
        return tuple(x)
