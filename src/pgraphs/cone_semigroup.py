"""Scale-multiplicative cone subsemigroups of a flat group.

A full sign pattern assigns every component j either to J+ (elements of
the cone must have rho_j >= 0) or to J- (rho_j <= 0).  With F the weight
rows with the J- rows negated, the cone

    P = { x : F x >= 0 }

is the maximal subsemigroup with those expansion directions, and the
scale function is multiplicative on it.  A cone refuses, when it is
built, a pattern that names a component it lacks or misses one;
membership, the flipped images and every search read F.  This module
decides exactly which full patterns occur (admissibility, by Gordan's
alternative, decided by an exact phase-1 simplex, whose dual gives an
admissible pattern's strict witness when it is read) and lists
them by a walk over the chambers of the hyperplane arrangement
{rho_j = 0}, which puts only
the chambers' neighbours to the test, not all 2^q patterns.  It finds
the unique minimal generating set of an admissible cone and the minimal
common upper bounds of a pair as minimal lattice points, up to a depth
proved from the extreme rays; `_proved_depth` proves that depth and
refuses it above the caller's bound.  The rays come from kernel lines
computed once per weight matrix, which every chamber of it shares.  The
generating set, the Hilbert basis, is read off the rays at every rank:
a pulling triangulation cuts the cone into a fan of simplicial cones,
and the candidates are the rays and the lattice points of each
simplicial cone's half-open parallelepiped, one per coset of the
lattice its rays span.  The upper bounds come from a walk over the
images on k = rank independent rows, a simplex in Z^k.
The module also counts the steps that absorb an element into the cone,
which proves the cone maximal.  Search bounds only cap work;
CertificationFailed names the bound a search needs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import gcd
from operator import add, ge, mul, sub

from . import _intlinalg
from .errors import CertificationFailed, KernelNotTrivial, NotApplicable, NotInSemigroup
from .flat_core import FlatGroupSpec, GroupElement, rho, uniscalar_kernel

_PATTERN_RE = re.compile(r"^(?:[+-]\d+)+$")


@dataclass(frozen=True)
class SignPattern:
    """Disjoint index sets J+ (expanding) and J- (contracting), 1-based."""

    j_plus: frozenset[int]
    j_minus: frozenset[int]

    def __post_init__(self):
        if self.j_plus & self.j_minus:
            raise ValueError("j_plus and j_minus must be disjoint")
        for j in self.j_plus | self.j_minus:
            if j < 1:
                raise ValueError("component indices are 1-based")

    @classmethod
    def of(cls, j_plus=(), j_minus=()) -> "SignPattern":
        return cls(frozenset(j_plus), frozenset(j_minus))

    @classmethod
    def parse(cls, text: str) -> "SignPattern":
        """Parse strings like '+1+2-3' (signed 1-based component indices)."""
        if not _PATTERN_RE.match(text):
            raise ValueError(f"bad pattern {text!r}; expected e.g. '+1+2-3'")
        plus, minus = set(), set()
        for sign, digits in re.findall(r"([+-])(\d+)", text):
            j = int(digits)
            (plus if sign == "+" else minus).add(j)
        return cls(frozenset(plus), frozenset(minus))

    def __str__(self) -> str:
        parts = []
        for j in sorted(self.j_plus | self.j_minus):
            parts.append(f"+{j}" if j in self.j_plus else f"-{j}")
        return "".join(parts)


@dataclass(frozen=True)
class ConeSemigroup:
    """The cone {x : F x >= 0} of a full sign pattern, F the weight rows
    with the J- rows negated.  Building it refuses with NotApplicable a
    pattern that names a component above q, or does not cover every
    component; F is computed once, when it is first read, and membership
    and the flipped images read only F.
    """

    spec: FlatGroupSpec
    pattern: SignPattern

    def __post_init__(self):
        q, named = self.spec.components, self.pattern.j_plus | self.pattern.j_minus
        if above := sorted(j for j in named if j > q):
            raise NotApplicable(
                f"pattern {self.pattern} names component {above[0]}, but the spec has {q}"
            )
        if named != set(range(1, q + 1)):
            raise NotApplicable(f"pattern {self.pattern} does not cover all {q} components")

    @functools.cached_property
    def flipped_rows(self) -> tuple[GroupElement, ...]:
        """F: the weight rows, each J- row negated."""
        return tuple(
            _intlinalg.vneg(row) if j in self.pattern.j_minus else row
            for j, row in enumerate(self.spec.weights, start=1)
        )

    def flipped_rho(self, x: GroupElement) -> tuple[int, ...]:
        """F x, rho with the J- components negated.  It lies in N^q
        exactly for the cone's elements, and the component-wise order on
        it is the divisibility order of the cone."""
        self.spec.check_element(x)
        return tuple(_intlinalg.dot(row, x) for row in self.flipped_rows)

    def contains(self, x: GroupElement) -> bool:
        return min(self.flipped_rho(x)) >= 0

    def check_descending(self, gens: tuple[GroupElement, ...]) -> None:
        """Refuse a nonzero generator outside the cone or in its lineality
        space, the uniscalar kernel F g = 0.  Stepping down by such a g can
        stay in the cone forever.  Each other nonzero g has F g >= 0 and
        sum(F g) > 0, so stepping down by it lowers the layer sum(F x),
        which is at least 0 on the cone, and every walk down ends."""
        for g in gens:
            fg = self.flipped_rho(g)
            if any(g) and (min(fg) < 0 or not any(fg)):
                where = "outside the cone" if min(fg) < 0 else "in the uniscalar kernel"
                raise NotApplicable(f"generator {g} lies {where}")


# ---------------------------------------------------------------------------
# Admissibility


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the exact admissibility test on the flipped weight rows.

    `certificate` is Gordan's proof of refusal, integers (lam, d) with
    lam >= 0, sum(lam) = d > 0 and sum lam_j rows_j = 0, or None when the
    pattern is admissible.  `witness` is then a primitive element with
    strictly correct sign on every component, read off the dual of the
    same phase-1 simplex that decided the pattern (`gordan_witness`),
    computed when it is first read and kept.  It is None for a refused
    pattern.
    """

    rows: tuple[GroupElement, ...]
    certificate: tuple[tuple[int, ...], int] | None

    @property
    def admissible(self) -> bool:
        return self.certificate is None

    @functools.cached_property
    def witness(self) -> GroupElement | None:
        return _intlinalg.gordan_witness(self.rows)


@functools.cache
def is_admissible(spec: FlatGroupSpec, pattern: SignPattern) -> AdmissibilityResult:
    """Decide admissibility of a full pattern exactly (Gordan's alternative).

    Either 0 is a convex combination of the flipped weight rows, and then
    no x has row.x > 0 on every row, or some x does.  The phase-1 simplex
    of `gordan_certificate` decides which on an integer tableau and, in
    the first case, returns the combination as the refusal's
    certificate.  The result's witness, from the dual of the same walk,
    is computed only when it is read.
    Each (spec, pattern) pair is decided once; a repeated call returns
    the cached result.
    """
    rows = ConeSemigroup(spec, pattern).flipped_rows
    return AdmissibilityResult(rows, _intlinalg.gordan_certificate(rows))


def _pattern_of(plus_mask: int, components: int) -> SignPattern:
    """The full pattern whose J+ holds component j exactly when bit j - 1
    of `plus_mask` is set."""
    plus = frozenset(j for j in range(1, components + 1) if plus_mask >> (j - 1) & 1)
    return SignPattern(plus, frozenset(range(1, components + 1)) - plus)


def enumerate_admissible(spec: FlatGroupSpec) -> list[SignPattern]:
    """All admissible full sign patterns, lexicographic on sorted J+.

    The admissible patterns are the chambers of the central arrangement of
    hyperplanes {rho_j = 0}: a witness x with sign(rho_j(x)) the pattern's
    sign on every j lies off every hyperplane, in one chamber, and every
    point of a chamber is such a witness.  Rows on one line through 0 share
    a hyperplane, so the rows are grouped by primitive direction up to
    sign; on every chamber, rows of one group with equal directions have
    equal signs and opposite ones opposite signs.  The walk starts at the
    chamber of x0 = (1, M, M^2, ...), M = 2 max|w| + 1, and flips one group
    at a time, keeping a flipped pattern exactly when `is_admissible`
    admits it.  It finds every chamber:

    * x0 lies off every hyperplane.  A primitive direction d has integer
      entries |d_i| <= max|w|, and with t its last nonzero index,
      |sum_{i<t} d_i M^i| <= max|w| (M^t - 1) / (M - 1) < M^t <= |d_t M^t|,
      as M >= max|w| + 2, so d.x0 != 0.  Its pattern needs no test.
    * Two chambers that share a facet differ in exactly one group's
      signs.  The facet spans a hyperplane of the arrangement, and only
      one: the hyperplanes are distinct, and two of them meet in a
      subspace of dimension k - 2.
    * The chamber graph, whose edges join chambers sharing a facet, is
      connected (Zaslavsky, Mem. AMS 154, 1975).  A segment between
      generic points of two chambers meets no intersection of two
      hyperplanes, so it passes from chamber to chamber through facets.

    So every chamber is reached by single-group flips through chambers,
    which the walk keeps; this is the cell enumeration of Avis and Fukuda's
    reverse search (Discrete Appl. Math. 65, 1996).  Each pattern is
    tested at most once, and patterns that split a group are never tested:
    Gordan's test would refuse them all.
    """
    q = spec.components
    top = 2 * max(abs(c) for row in spec.weights for c in row) + 1
    x0 = [top**i for i in range(spec.rank)]
    start = sum(1 << j for j, row in enumerate(spec.weights) if _intlinalg.dot(row, x0) > 0)
    groups: dict[GroupElement, int] = {}  # direction up to sign -> bit mask of its rows
    for j, row in enumerate(spec.weights):
        g = gcd(*row)
        d = tuple(c // g for c in row)
        key = max(d, _intlinalg.vneg(d))
        groups[key] = groups.get(key, 0) | 1 << j
    chambers, todo, seen = [start], [start], {start}
    while todo:
        mask = todo.pop()
        for flip in groups.values():
            nxt = mask ^ flip
            if nxt not in seen:
                seen.add(nxt)
                if is_admissible(spec, _pattern_of(nxt, q)).admissible:
                    chambers.append(nxt)
                    todo.append(nxt)
    found = [_pattern_of(mask, q) for mask in chambers]
    found.sort(key=lambda p: tuple(sorted(p.j_plus)))
    return found


# ---------------------------------------------------------------------------
# Minimal generating set


@dataclass(frozen=True)
class GeneratorSet:
    """The unique minimal generating set of a cone, split by sign behaviour.

    sigma_plus  -- generators with every rho_j >= 0
    sigma_minus -- generators with every rho_j <= 0
    sigma_zero  -- generators with mixed signs
    max_layer       -- largest flipped-rho layer norm among generators
    certified_layer -- layer norm bound from the extreme rays; no
                       generator lies above it
    """

    sigma: tuple[GroupElement, ...]
    sigma_plus: tuple[GroupElement, ...]
    sigma_zero: tuple[GroupElement, ...]
    sigma_minus: tuple[GroupElement, ...]
    max_layer: int = field(default=0, compare=False)
    certified_layer: int = field(default=0, compare=False)


@functools.cache
def _kernel_lines(rows: tuple[GroupElement, ...], rank: int) -> tuple[GroupElement, ...]:
    """The distinct kernel lines, each as its sign-normalised primitive
    vector, of the rank - 1 element subsets of `rows` whose kernel in
    Z^rank has rank 1.  Negating a row leaves its kernel as it is, so
    callers pass their rows up to sign, and every chamber of a spec
    shares one computation.
    """
    found = {}
    for tight in combinations(rows, rank - 1):
        kernel = _intlinalg.kernel_basis(tight, rank)
        if len(kernel) == 1:
            found[kernel[0]] = None
    return tuple(found)


@functools.cache
def _extreme_rays(
    flipped: tuple[GroupElement, ...], rank: int
) -> tuple[tuple[GroupElement, int], ...]:
    """The extreme rays r of the pointed cone {x : F x >= 0}, each as its
    primitive vector oriented into the cone, with its layer sum(F r):
    the kernel lines of rank - 1 independent rows on which F takes one
    sign.  Kept for each F, so the depth and the Hilbert basis of one
    cone read it once."""
    rays = []
    for line in _kernel_lines(tuple(max(row, _intlinalg.vneg(row)) for row in flipped), rank):
        values = [sum(map(mul, row, line)) for row in flipped]
        if min(values) >= 0:
            rays.append((line, sum(values)))
        elif max(values) <= 0:
            rays.append((_intlinalg.vneg(line), -sum(values)))
    return tuple(rays)


def _ray_bound(flipped: tuple[GroupElement, ...], rank: int) -> int:
    """Sum of the `rank` largest layers of the extreme rays."""
    return sum(sorted((layer for _, layer in _extreme_rays(flipped, rank)), reverse=True)[:rank])


def _search_depth(flipped: tuple[GroupElement, ...], rank: int, base: tuple[int, ...]) -> int:
    """Largest offset sum(F u) - sum(base) of a minimal lattice point u of
    Q = {u : F u >= base}, in the order u <= u' iff F (u' - u) >= 0.

    F has full column rank, so Q is pointed: Q = conv(V) + C, with V the
    vertices of Q (k independent rows tight) and C = {x : F x >= 0}.  By
    Caratheodory a lattice point of Q is u = v + sum c_i r_i with v in
    conv(V), c_i >= 0 and r_i at most k independent extreme rays of C,
    which are primitive lattice vectors.  When some c_i >= 1, u - r_i is
    a lattice point of Q below u, so u is not minimal.  The one exception
    is base 0, where the origin is excluded and the minimal points form
    the Hilbert basis: there u = r_i is minimal, and its layer is at most
    the ray bound.  Otherwise every c_i < 1, and the layer sum(F u),
    linear in u, stays below the largest vertex layer plus the sum of the
    k largest ray layers (Bruns and Gubeladze, Polytopes, Rings, and
    K-Theory, ch. 2).  The layer is an integer, so the floor of that sum
    bounds it.  For base 0 the only vertex is 0 and the depth is the ray
    bound, returned without the vertex solves.

    Each vertex comes from `solve_scaled` as u = y / d with d > 0, so the
    feasibility test F y >= d base and the layer sum(F y) / d stay in
    integers; the largest layer is kept as a numerator over its
    denominator and floored once.
    """
    if not any(base):
        return _ray_bound(flipped, rank)
    top, top_d = 0, 1  # every point of Q has layer >= sum(base) >= 0
    for tight in combinations(range(len(flipped)), rank):
        sol = _intlinalg.solve_scaled([flipped[i] for i in tight], [base[i] for i in tight])
        if sol is None:
            continue
        y, d = sol
        images = [_intlinalg.dot(r, y) for r in flipped]
        if all(a >= d * c for a, c in zip(images, base)) and sum(images) * top_d > top * d:
            top, top_d = sum(images), d
    return top // top_d + _ray_bound(flipped, rank) - sum(base)


def _minimal_points(
    flipped: tuple[GroupElement, ...], rank: int, base: tuple[int, ...], last: int
) -> list[tuple[tuple[int, ...], GroupElement]]:
    """Minimal lattice points of Q = {u : F u >= base} with offsets
    sum(F u) - sum(base) up to `last`, as (image F u, u) pairs in layer
    order, lexicographic on the image within a layer.

    The walk runs over the k = rank coordinates b = F_B u of the image on
    the independent rows B that `ImageSolver` picks, not over the whole
    image in N^q.  It takes every t = b - base_B in the simplex
    {t in N^k : sum(t) <= last} and keeps b when B x = b has an integer
    solution x with v = F x >= base and an offset sum(v) - sum(base) of
    at most `last`.  The kept points are exactly the lattice points of Q
    in that range, so their minimal points are the ones sought:

    * A lattice point u of Q with offset at most `last` has t >= 0 and
      sum(t) <= offset <= last, because the coordinates of F u - base off
      B are >= 0 as well.
    * B is invertible, so each b is the image of at most one x, and for
      b = F_B u that x is u.

    The simplex points come from their bars: k positions 0 < c_1 < ... <
    c_k <= last + k, with c_0 = 0, give the parts t_i = c_i - c_{i-1} - 1
    and the slack last + k - c_k (stars and bars), so b_i is
    (base_B)_i - 1 + c_i - c_{i-1}.  The walk asks C(last + k, k)
    questions, against C(last + q, q) for the compositions of the layers
    0..last of the image, and q >= k.  The kept points are sorted by
    (layer, image).  Two images of one layer never dominate each other,
    so a point is minimal exactly when its image dominates no kept image
    of a lower layer.
    """
    solver = _intlinalg.ImageSolver(flipped, rank)
    low = tuple(base[i] - 1 for i in solver.basis_idx)
    highest = sum(base) + last
    found = []
    for bars in combinations(range(1, last + rank + 1), rank):
        x = solver.preimage(tuple(map(sub, map(add, low, bars), (0,) + bars)))
        if x is not None:
            v = tuple([sum(map(mul, row, x)) for row in flipped])
            if (layer := sum(v)) <= highest and all(map(ge, v, base)):
                found.append((layer, v, x))
    return _least(found)


def _least(
    found: list[tuple[int, tuple[int, ...], GroupElement]]
) -> list[tuple[tuple[int, ...], GroupElement]]:
    """The (image, point) pairs of the triples (layer, image, point) whose
    image dominates no image kept before it, in (layer, image) order.

    Two distinct images of one layer never dominate each other, so a
    point is kept exactly when its image dominates no kept image of a
    lower layer; a repeated point dominates its first copy.
    """
    found.sort()
    kept: list[tuple[tuple[int, ...], GroupElement]] = []
    for _, v, x in found:
        if not any(all(map(ge, v, w)) for w, _ in kept):
            kept.append((v, x))
    return kept


def _simplicial_fan(
    rays: tuple[GroupElement, ...], flipped: tuple[GroupElement, ...], dim: int
) -> list[tuple[GroupElement, ...]]:
    """Simplicial cones, as tuples of `dim` independent rays, that cover
    the `dim`-dimensional face of {x : F x >= 0} spanned by the extreme
    `rays`: its pulling triangulation from the first ray r (De Loera,
    Rambau and Santos, Triangulations, 2010, sec. 4.3).

    A cone with `dim` rays is simplicial.  Otherwise a point x of the
    cone moves along -r, and leaves the cone as it is pointed, at some
    y = x - t r with t >= 0.  The smallest face through y misses r, or
    y - e r would stay in it, so one of the facets through y misses r:
    the cones of r over the fans of the facets that miss r cover the
    cone.  A facet is the face on which one row of F vanishes, spanned
    by the rays on which the row vanishes when they have rank dim - 1,
    and the row is positive on r exactly when the facet misses r.  The
    facets of a face are faces too, so F serves every level, and each
    facet keeps the order of the rays.
    """
    if len(rays) == dim:
        return [rays]
    first = rays[0]
    facets = {}
    for row in flipped:
        if _intlinalg.dot(row, first) > 0:
            facet = tuple(r for r in rays if not _intlinalg.dot(row, r))
            if facet not in facets and _intlinalg.rational_rank(facet) == dim - 1:
                facets[facet] = None
    return [(first,) + cone for facet in facets
            for cone in _simplicial_fan(facet, flipped, dim - 1)]


def _parallelepiped_points(cone: tuple[GroupElement, ...]) -> list[GroupElement]:
    """The nonzero lattice points of the half-open parallelepiped
    {sum lam_i r_i : 0 <= lam_i < 1} of k independent rays r_i in Z^k.

    With R the matrix whose columns are the rays, there is one such point
    in each coset of R Z^k other than R Z^k itself, |det R| - 1 in all.
    The box of `hermite_diagonal` lists one representative y of each
    coset.  With (A, d) = `adjugate`(R), lam = A y / d is y's coordinate
    vector on the rays, and y - R floor(lam) is the coset's point: its
    coordinates are the fractional parts of lam.  The zero coset's box
    point is y = 0, listed first, and a unimodular cone has no other.
    """
    box = _intlinalg.hermite_diagonal(cone)
    if max(box) == 1:
        return []
    columns = list(zip(*cone))
    adj, d = _intlinalg.adjugate(columns)
    points = []
    for y in islice(product(*map(range, box)), 1, None):
        shift = [sum(map(mul, row, y)) // d for row in adj]
        points.append(tuple(c - sum(map(mul, row, shift)) for c, row in zip(y, columns)))
    return points


def _hilbert_basis(
    flipped: tuple[GroupElement, ...], rank: int
) -> list[tuple[tuple[int, ...], GroupElement]]:
    """The Hilbert basis of the pointed cone {u : F u >= 0}, as (F u, u)
    pairs in (layer, image) order like `_minimal_points`, found among the
    extreme rays and the parallelepiped points of a simplicial fan.

    Every nonzero lattice point u lies in a cone of the fan, u = sum
    lam_i r_i, and u - sum floor(lam_i) r_i is a point of that cone's
    half-open parallelepiped.  An irreducible u equals that point, or,
    when the point is 0, one ray.  So the candidates hold the Hilbert
    basis, and `_least` keeps exactly it: a reducible candidate lies
    above a basis element of a lower layer, and a basis element above
    none.  Each candidate is a sum of at most `rank` rays with
    coefficients below 1, or a ray, so its layer is at most the ray
    bound.  (Bruns and Koch, Univ. Iagel. Acta Math. 39, 2001.)
    """
    rays = _extreme_rays(flipped, rank)
    found = [(layer, tuple([sum(map(mul, row, r)) for row in flipped]), r) for r, layer in rays]
    for cone in _simplicial_fan(tuple(r for r, _ in rays), flipped, rank):
        for x in _parallelepiped_points(cone):
            v = tuple([sum(map(mul, row, x)) for row in flipped])
            found.append((sum(v), v, x))
    return _least(found)


def _proved_depth(
    flipped: tuple[GroupElement, ...], rank: int, base: tuple[int, ...], bound: int, need: str
) -> int:
    """The depth `_search_depth` proves for Q = {u : F u >= base}.
    CertificationFailed names it, after the stem `need`, when it exceeds
    `bound`."""
    depth = _search_depth(flipped, rank, base)
    if depth > bound:
        raise CertificationFailed(
            bound, f"{need} {depth}, above the bound {bound}; raise the bound"
        )
    return depth


def minimal_generators(P: ConeSemigroup, norm_bound: int = 16) -> GeneratorSet:
    """Minimal generating set (Hilbert basis) of the cone: the minimal
    nonzero lattice points, found by `_hilbert_basis` at every rank, none
    above the ray bound `_search_depth` proves with base 0.
    CertificationFailed names that depth when it exceeds `norm_bound`.
    """
    if uniscalar_kernel(P.spec):
        raise KernelNotTrivial("weight matrix has nontrivial kernel")
    if not is_admissible(P.spec, P.pattern).admissible:
        raise NotApplicable(f"pattern {P.pattern} is not admissible")
    flipped, rank = P.flipped_rows, P.spec.rank
    certify_to = _proved_depth(flipped, rank, (0,) * P.spec.components, norm_bound,
                               "generator set needs layer norm bound")
    minimals = _hilbert_basis(flipped, rank)
    max_layer = max(sum(v) for v, _ in minimals)

    sigma = sorted(x for _, x in minimals)
    plus, zero, minus = [], [], []
    for x in sigma:
        r = rho(P.spec, x)
        if all(c >= 0 for c in r):
            plus.append(x)
        elif all(c <= 0 for c in r):
            minus.append(x)
        else:
            zero.append(x)
    return GeneratorSet(
        sigma=tuple(sigma),
        sigma_plus=tuple(plus),
        sigma_zero=tuple(zero),
        sigma_minus=tuple(minus),
        max_layer=max_layer,
        certified_layer=certify_to,
    )


# ---------------------------------------------------------------------------
# Maximality


def absorption_steps(
    P: ConeSemigroup, y: GroupElement, indicator: GroupElement | None = None
) -> int:
    """Smallest n >= 0 with y + n * indicator in the cone.

    The default indicator, the Gordan witness of `is_admissible`, proves
    the cone maximal among multiplicative cones.  It is strictly positive
    on every flipped row, so it absorbs every y.  And y, -y both in the
    cone give flipped rho(y) >= 0 and <= 0, so rho(y) = 0.  That witness
    is read off the dual of the phase-1 simplex, not chosen short, and n
    counts steps of that one indicator, so n moves with it.
    """
    if indicator is None:
        adm = is_admissible(P.spec, P.pattern)
        if not adm.admissible:
            raise NotApplicable(f"pattern {P.pattern} has no indicator element")
        indicator = adm.witness
    fy = P.flipped_rho(y)
    fi = P.flipped_rho(indicator)
    n = 0
    for a, b in zip(fy, fi):
        if a < 0:
            if b <= 0:
                raise NotApplicable("indicator element is not strictly expanding")
            n = max(n, (-a + b - 1) // b)  # ceil(-a / b)
    if not P.contains(tuple(c + n * d for c, d in zip(y, indicator))):
        raise NotApplicable("indicator element does not absorb y into the cone")
    return n


# ---------------------------------------------------------------------------
# Quasi-lattice-order diagnostics


def minimal_common_upper_bounds(
    P: ConeSemigroup, a: GroupElement, b: GroupElement, bound: int = 8
) -> list[GroupElement]:
    """Minimal elements of {u : u - a in P and u - b in P}, in the cone
    order x <= y iff y - x in P; two or more mean no least upper bound.

    The upper bounds are the lattice points of Q = {u : F u >= base}, base
    the component-wise maximum of the flipped images of a and b, so they
    are `_minimal_points` up to the offset `_search_depth` proves, above
    which none lies.  CertificationFailed names that offset when it
    exceeds `bound`.
    """
    fa, fb = P.flipped_rho(a), P.flipped_rho(b)
    if min(fa + fb) < 0:
        raise NotInSemigroup("both inputs must lie in the cone")
    if uniscalar_kernel(P.spec):
        raise KernelNotTrivial("cone order is not antisymmetric")
    base = tuple(map(max, fa, fb))
    flipped, rank = P.flipped_rows, P.spec.rank
    depth = _proved_depth(flipped, rank, base, bound, "upper bounds need offset bound")
    return sorted(x for _, x in _minimal_points(flipped, rank, base, depth))


# ---------------------------------------------------------------------------
# Scale on the cone, as exponent data


def scale_exponent_forms(
    spec: FlatGroupSpec, pattern: SignPattern
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Exponent of each relative-scale base in the scale restricted to the
    cone: scale(x) = prod over (base, coeffs) of base ** <coeffs, x>.

    Only J+ components contribute; components sharing a base are merged.
    """
    forms: dict[int, list[int]] = {}
    for j in sorted(pattern.j_plus):
        base = spec.relative_scales[j - 1]
        acc = forms.setdefault(base, [0] * spec.rank)
        for i, c in enumerate(spec.weights[j - 1]):
            acc[i] += c
    return tuple(
        (base, tuple(coeffs)) for base, coeffs in sorted(forms.items()) if any(coeffs)
    )


def format_linear_form(coeffs: tuple[int, ...]) -> str:
    """Render e.g. (2, -1) as '2n1-n2'; the zero form renders as '0'."""
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}n{i}")
    return "".join(parts) or "0"


def format_scale(forms: tuple[tuple[int, tuple[int, ...]], ...]) -> str:
    if not forms:
        return "1"
    return "*".join(f"{base}^({format_linear_form(coeffs)})" for base, coeffs in forms)
