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
from functools import cached_property
from itertools import product

from .cone_semigroup import ConeSemigroup
from .errors import LevelNotComparable, NonPrimeModulus, NotInSemigroup
from .flat_core import FlatGroupSpec, GroupElement, make_spec, rho


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Vertex:
    """A point of the fiber over a level: one residue per component,
    each below the component's cap at that level."""

    level: GroupElement
    residues: tuple[int, ...]


@dataclass(frozen=True)
class PadicModel:
    """Diagonal residue model: rows of (prime, exponent vector)."""

    rows: tuple[tuple[int, GroupElement], ...]

    def __post_init__(self):
        for j, (p, _) in enumerate(self.rows):
            if not _is_prime(p):
                raise NonPrimeModulus(f"row {j + 1}: modulus {p} is not prime")
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
        self.flat_spec()  # FlatGroupSpec checks the shape and d_j >= 2

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
    spec = model.flat_spec()
    r = rho(spec, x)
    return tuple(s ** max(v, 0) for s, v in zip(spec.relative_scales, r))


def fiber(model: CosetModel, P: ConeSemigroup, x: GroupElement) -> list[Vertex]:
    """All vertices over level x, residue tuples in lexicographic order.

    The length equals scale(x)."""
    if not P.contains(x):
        raise NotInSemigroup(f"level {x} is outside the cone")
    cap = caps(model, x)
    return [Vertex(tuple(x), res) for res in product(*(range(c) for c in cap))]


def truncate(model: CosetModel, x: GroupElement, y: GroupElement, v: Vertex) -> Vertex:
    """Map a vertex at level y down to its ancestor at level x.

    Requires the caps at x to divide the caps at y component-wise (which
    holds whenever y - x lies in a cone containing both).  The p-adic
    backend reduces each residue modulo the smaller cap; the tree
    backend keeps the leading digits (word prefix).
    """
    if tuple(v.level) != tuple(y):
        raise LevelNotComparable(f"vertex level {v.level} is not {y}")
    cap_x, cap_y = caps(model, x), caps(model, y)
    if any(cx > cy for cx, cy in zip(cap_x, cap_y)):
        raise LevelNotComparable(f"levels {x} and {y} are not comparable")
    if isinstance(model, PadicModel):
        res = tuple(r % c for r, c in zip(v.residues, cap_x))
    else:
        res = tuple(r // (cy // cx) for r, cx, cy in zip(v.residues, cap_x, cap_y))
    return Vertex(tuple(x), res)


def preimage_count(model: CosetModel, x: GroupElement, y: GroupElement) -> int:
    """Size of every truncation preimage class from level y down to x."""
    cap_x, cap_y = caps(model, x), caps(model, y)
    if any(cx > cy for cx, cy in zip(cap_x, cap_y)):
        raise LevelNotComparable(f"levels {x} and {y} are not comparable")
    n = 1
    for cx, cy in zip(cap_x, cap_y):
        n *= cy // cx
    return n
