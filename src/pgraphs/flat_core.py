"""Exact scale arithmetic for flat groups given by numerical data.

A flat group of rank k acting on q components is described by a q x k
integer weight matrix (row j is the component homomorphism rho_j on the
standard generators) and relative scales s_j >= 2, one per component.
The scale of an element x is

    scale(x) = prod_j s_j ** max(rho_j(x), 0)

and everything else (module, submultiplicativity defect, uniscalar
kernel) is derived from that formula with exact integer arithmetic.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import _intlinalg
from .errors import DimensionMismatch

# Elements of the flat group are plain coordinate tuples.
GroupElement = tuple[int, ...]

MAX_RANK = 16
MAX_COMPONENTS = 16


@dataclass(frozen=True)
class FlatGroupSpec:
    """Numerical description of a flat group action.

    rank            -- k, the free rank of the group
    components      -- q, the number of scaled components
    weights         -- q rows of length k; row j is rho_j on the generators
    relative_scales -- q integers s_j >= 2
    """

    rank: int
    components: int
    weights: tuple[GroupElement, ...]
    relative_scales: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        if not 1 <= self.components <= MAX_COMPONENTS:
            raise ValueError(
                f"components must be in 1..{MAX_COMPONENTS}, got {self.components}"
            )
        if len(self.weights) != self.components:
            raise ValueError("one weight row per component required")
        for j, row in enumerate(self.weights):
            if len(row) != self.rank:
                raise ValueError(f"weight row {j + 1} has length {len(row)}, want {self.rank}")
            if all(c == 0 for c in row):
                raise ValueError(f"weight row {j + 1} is zero")
        if len(self.relative_scales) != self.components:
            raise ValueError("one relative scale per component required")
        for j, s in enumerate(self.relative_scales):
            if s < 2:
                raise ValueError(f"relative scale {j + 1} must be >= 2, got {s}")

    def check_element(self, x: GroupElement) -> None:
        if len(x) != self.rank:
            raise DimensionMismatch(
                f"element has {len(x)} coordinates, spec rank is {self.rank}"
            )


def make_spec(weights, relative_scales) -> FlatGroupSpec:
    """Convenience constructor from any nested iterables."""
    rows = tuple(tuple(int(c) for c in row) for row in weights)
    scales = tuple(int(s) for s in relative_scales)
    if not rows:
        raise ValueError("at least one weight row required")
    return FlatGroupSpec(
        rank=len(rows[0]), components=len(rows), weights=rows, relative_scales=scales
    )


def rho(spec: FlatGroupSpec, x: GroupElement) -> tuple[int, ...]:
    """Component homomorphism values (rho_1(x), ..., rho_q(x))."""
    spec.check_element(x)
    return tuple(_intlinalg.dot(row, x) for row in spec.weights)


def component_scales(spec: FlatGroupSpec, x: GroupElement) -> tuple[int, ...]:
    """s_j ** max(rho_j(x), 0) for each component j."""
    return tuple(s ** max(r, 0) for s, r in zip(spec.relative_scales, rho(spec, x)))


def scale(spec: FlatGroupSpec, x: GroupElement) -> int:
    """prod_j s_j ** max(rho_j(x), 0); equals 1 iff no component expands."""
    return math.prod(component_scales(spec, x))


def module_delta(spec: FlatGroupSpec, x: GroupElement) -> Fraction:
    """scale(x) / scale(-x), as an exact rational; multiplicative in x."""
    from fractions import Fraction  # not at module level: loads decimal, ~3 ms per CLI start

    spec.check_element(x)
    return Fraction(scale(spec, x), scale(spec, _intlinalg.vneg(x)))


class SubmultClass(enum.Enum):
    EQUAL = "equal"
    STRICT = "strict"


def submultiplicativity_class(
    spec: FlatGroupSpec, x: GroupElement, y: GroupElement
) -> SubmultClass:
    """STRICT iff scale(x+y) < scale(x)*scale(y).

    This happens exactly when some component sees rho_j(x) and rho_j(y)
    nonzero with opposite signs; EQUAL otherwise.
    """
    rx, ry = rho(spec, x), rho(spec, y)
    strict = any(a * b < 0 for a, b in zip(rx, ry))
    return SubmultClass.STRICT if strict else SubmultClass.EQUAL


def uniscalar_kernel(spec: FlatGroupSpec) -> list[GroupElement]:
    """Basis of the integer kernel lattice of the weight matrix.

    Empty iff the weight matrix is injective on Z^rank.  Elements of this
    lattice are exactly those x with scale(x) = scale(-x) = 1.  The basis
    is reduced once per spec; each call returns a fresh list.
    """
    return list(_kernel_of(spec))


@functools.cache
def _kernel_of(spec: FlatGroupSpec) -> tuple[GroupElement, ...]:
    return tuple(_intlinalg.kernel_basis(spec.weights, spec.rank))
