"""Exact integer and rational linear algebra on small dense matrices.

Everything here works on tuples of Python ints (arbitrary precision) or
Fractions; nothing is ever rounded.  Matrices are sequences of rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

Vec = tuple[int, ...]


def dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, x))


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
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


def independent_row_indices(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal linearly independent subset of rows (greedy)."""
    chosen: list[int] = []
    basis: list[Sequence[int]] = []
    for i, r in enumerate(rows):
        if rational_rank(basis + [r]) == len(basis) + 1:
            chosen.append(i)
            basis.append(r)
    return chosen


def solve_unique(matrix: Sequence[Sequence[int]], rhs: Sequence) -> list[Fraction] | None:
    """Solve M y = rhs when M has full column rank.

    Returns None if the system is inconsistent or underdetermined.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(map(Fraction, matrix[i])) + [Fraction(rhs[i])] for i in range(nrows)]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            return None  # rank-deficient: no unique solution
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pr = aug[row]
        inv = 1 / pr[col]
        aug[row] = [a * inv for a in pr]
        for i in range(nrows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, nrows):
        if aug[i][ncols] != 0:
            return None  # inconsistent
    return [aug[i][ncols] for i in range(ncols)]


def kernel_basis(rows: Sequence[Vec], ncols: int) -> list[Vec]:
    """Basis of the integer kernel lattice {x in Z^ncols : (rows) x = 0}.

    Row-reduces the transpose with unimodular operations; transform rows
    hitting zero form a lattice basis (not merely a rational one).
    """
    # A = transpose(rows): ncols rows of length len(rows); track U with U*A = H.
    nr = len(rows)
    a = [[rows[j][i] for j in range(nr)] for i in range(ncols)]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    row = 0
    for col in range(nr):
        while True:
            live = [i for i in range(row, ncols) if a[i][col] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(a[i][col]))
            a[row], a[piv] = a[piv], a[row]
            u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, ncols):
                if a[i][col] != 0:
                    q = a[i][col] // a[row][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
                    if a[i][col] != 0:
                        done = False
            if done:
                row += 1
                break
    basis = [tuple(u[i]) for i in range(ncols) if all(v == 0 for v in a[i])]
    return sorted(_sign_normal(b) for b in basis)


def _sign_normal(v: Vec) -> Vec:
    lead = next((x for x in v if x != 0), 0)
    return vneg(v) if lead < 0 else v


def min_norm_point(points: Sequence[Vec]) -> tuple[Fraction, ...]:
    """The point of the convex hull of `points` nearest to 0, exactly.

    Enumerates affinely independent subsets S of size at most dim+1
    (Caratheodory).  The point of aff(S) nearest to 0 is p = sum lam_i s_i
    with (lam, mu) solving the affine Gram system [S^T S 1; 1^T 0] = (0, 1).
    A solution with lam >= 0 and q.p >= |p|^2 for every point q meets the
    KKT conditions of the hull, so p is its minimum-norm point.  0 lies in
    the hull exactly when p is 0.
    """
    pts = list(points)
    dim = len(pts[0])
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            gram = [[dot(s, t) for t in subset] + [1] for s in subset]
            gram.append([1] * size + [0])
            sol = solve_unique(gram, [0] * size + [1])
            if sol is None or any(c < 0 for c in sol[:size]):
                continue
            p = tuple(sum(c * s[i] for c, s in zip(sol, subset)) for i in range(dim))
            norm2 = dot(p, p)
            if all(dot(q, p) >= norm2 for q in pts):
                return p
    raise AssertionError("no Caratheodory subset met the KKT conditions")


def primitive(v: Sequence[Fraction]) -> Vec:
    """The primitive integer vector on the ray through a nonzero rational v."""
    den = lcm(*(c.denominator for c in v))
    ints = [int(c * den) for c in v]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


class ImageSolver:
    """Solves W x = v for x in Z^k, where W (q x k) has full column rank.

    Precomputes an independent row subset so repeated solves are cheap.
    """

    def __init__(self, rows: Sequence[Vec], ncols: int):
        if rational_rank(rows) != ncols:
            raise ValueError("matrix does not have full column rank")
        self.rows = [tuple(r) for r in rows]
        self.ncols = ncols
        self.basis_idx = independent_row_indices(rows)[:ncols]
        self._basis = [rows[i] for i in self.basis_idx]

    def preimage(self, v: Sequence[int]) -> Vec | None:
        """The unique integer x with W x = v, or None if there is none."""
        sol = solve_unique(self._basis, [v[i] for i in self.basis_idx])
        if sol is None or any(c.denominator != 1 for c in sol):
            return None
        x = tuple(int(c) for c in sol)
        if any(dot(r, x) != vi for r, vi in zip(self.rows, v)):
            return None
        return x
