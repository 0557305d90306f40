"""Concrete coset models producing finite fibers and truncation maps.

Two backends:

* ``PadicModel`` -- rows (p_j, a_j) where moving by x scales residue
  coordinate j by p_j ** -<a_j, x>.  A vertex at level x stores one
  canonical numerator per coordinate, taken modulo the coordinate cap
  p_j ** max(<a_j, x>, 0); truncation is reduction modulo the smaller
  cap (multiplying the fractional part back into the unit ball).

* ``TreeModel`` -- one rooted tree of out-valency d_j per coordinate;
  vertices at level x are words of length x_j per coordinate, encoded
  as integers below d_j ** x_j, and truncation takes word prefixes
  (an integer digit shift).

Both backends derive the same kind of flat-group spec, so scale and
fiber sizes come from the shared formula; only truncation differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product, repeat
from operator import gt
from typing import NamedTuple

from .cone_semigroup import ConeSemigroup
from .errors import LevelNotComparable, NonPrimeModulus, NotInSemigroup
from .flat_core import (
    MAX_COMPONENTS, MAX_RANK, FlatGroupSpec, GroupElement, component_scales, make_spec,
)


# Miller-Rabin with the first 13 primes as bases passes no composite below
# PRIME_TEST_LIMIT (psi_13 of Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.  A witness base proves n
    composite at any size, but passing every base proves n prime only
    below PRIME_TEST_LIMIT; at or above it that raises ValueError."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"{n} passes every base, but primality is decided only below {PRIME_TEST_LIMIT}"
        )
    return True


class Vertex(NamedTuple):
    """A point of the fiber over a level: one residue per component,
    each below the component's cap at that level."""

    level: GroupElement
    residues: tuple[int, ...]


pair_vertex = partial(tuple.__new__, Vertex)  # Vertex(*pair), with no Python frame per call


@dataclass(frozen=True)
class PadicModel:
    """Diagonal residue model: rows of (prime, exponent vector)."""

    rows: tuple[tuple[int, GroupElement], ...]

    def __post_init__(self):
        for j, (p, exps) in enumerate(self.rows):
            try:
                prime = _is_prime(p)
            except ValueError as exc:
                raise ValueError(f"rows[{j}].prime: {exc}") from None
            if not prime:
                raise NonPrimeModulus(f"rows[{j}].prime: modulus {p} is not prime")
            if not any(exps):
                raise ValueError(f"rows[{j}].exponents: weight row is zero")
        # FlatGroupSpec checks the rank before the row count, so this does too
        if (n := len(self.rows)) > MAX_COMPONENTS and len(self.rows[0][1]) <= MAX_RANK:
            raise ValueError(f"rows: components must be in 1..{MAX_COMPONENTS}, got {n}")
        self.flat_spec()  # FlatGroupSpec checks the shape and the ranges

    def flat_spec(self) -> FlatGroupSpec:
        return self._spec

    @cached_property
    def _spec(self) -> FlatGroupSpec:
        # derived once per model: caps() asks for it on every edge
        return make_spec(
            weights=[exps for _, exps in self.rows],
            relative_scales=[p for p, _ in self.rows],
        )


@dataclass(frozen=True)
class TreeModel:
    """Product of rooted regular trees, one per coordinate.  A valency-1
    tree never expands, so every valency must be at least 2."""

    valencies: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= (n := len(self.valencies)) <= MAX_COMPONENTS:
            raise ValueError(f"valencies: components must be in 1..{MAX_COMPONENTS}, got {n}")
        self.flat_spec()  # FlatGroupSpec checks d_j >= 2

    def flat_spec(self) -> FlatGroupSpec:
        return self._spec

    @cached_property
    def _spec(self) -> FlatGroupSpec:
        n = len(self.valencies)
        identity = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        return make_spec(weights=identity, relative_scales=self.valencies)


CosetModel = PadicModel | TreeModel


def caps(model: CosetModel, x: GroupElement) -> tuple[int, ...]:
    """Residue cap per component at level x: s_j ** max(rho_j(x), 0)."""
    return component_scales(model.flat_spec(), x)


def fiber(
    model: CosetModel, P: ConeSemigroup, x: GroupElement, cap: tuple[int, ...] | None = None
) -> list[Vertex]:
    """All vertices over level x, residue tuples in lexicographic order.

    The length equals scale(x).  A caller that holds caps(model, x)
    passes it as `cap`."""
    if not P.contains(x):
        raise NotInSemigroup(f"level {x} is outside the cone")
    if cap is None:
        cap = caps(model, x)
    return list(map(pair_vertex, zip(repeat(tuple(x)), product(*map(range, cap)))))


def _require_comparable(x: GroupElement, y: GroupElement, cap_x, cap_y) -> None:
    """LevelNotComparable unless each cap at x is at most the one at y."""
    if any(map(gt, cap_x, cap_y)):
        raise LevelNotComparable(f"levels {x} and {y} are not comparable")


def truncate(model: CosetModel, x: GroupElement, y: GroupElement, v: Vertex) -> Vertex:
    """Map a vertex at level y down to its ancestor at level x.

    Requires the caps at x to divide the caps at y component-wise (which
    holds whenever y - x lies in a cone containing both).
    """
    if tuple(v.level) != tuple(y):
        raise LevelNotComparable(f"vertex level {v.level} is not {y}")
    cap_x, cap_y = caps(model, x), caps(model, y)
    _require_comparable(x, y, cap_x, cap_y)
    if isinstance(model, PadicModel):  # reduce modulo the smaller cap
        res = tuple(r % cx for r, cx in zip(v.residues, cap_x))
    else:  # keep the leading digits: the word prefix
        res = tuple(r // (cy // cx) for r, cx, cy in zip(v.residues, cap_x, cap_y))
    return Vertex(tuple(x), res)


def positions_from_caps(
    model: CosetModel, x: GroupElement, y: GroupElement, cap_x, cap_y
) -> list[int]:
    """Where truncation from level y down to x sends each vertex, given
    cap_x = caps(model, x) and cap_y = caps(model, y): entry i is the
    position in fiber(x) of the truncation of the i-th vertex of
    fiber(y), both fibers in lexicographic residue order.  `build_slice`
    works out each level's caps once, not once per level pair it joins.

    The model is diagonal, so the map is a product of one map per
    component: residues r at y land at the mixed-radix position of
    (t_1(r_1), t_2(r_2), ...) in fiber(x), where t_j truncates component
    j.  Expanding one column t_j(0), ..., t_j(cap_y[j] - 1) per component,
    first component outermost, lists the positions in fiber(y)'s order.
    """
    _require_comparable(x, y, cap_x, cap_y)
    if isinstance(model, PadicModel):  # r % cx: the residues below cx, cy // cx times over
        columns = [list(range(cx)) * (cy // cx) for cx, cy in zip(cap_x, cap_y)]
    else:  # r // (cy // cx): each residue below cx, cy // cx times in a row
        columns = [[r for r in range(cx) for _ in range(cy // cx)] for cx, cy in zip(cap_x, cap_y)]
    return mixed_radix(columns, cap_x)


def mixed_radix(columns, sizes) -> list[int]:
    """Column j lists positions in a fiber of size sizes[j].  For each
    choice of one entry per column, first column outermost, the position
    of that tuple in the fibers' product laid out in lexicographic order."""
    positions = [0]
    for column, n in zip(columns, sizes):
        positions = [p * n + c for p in positions for c in column]
    return positions
