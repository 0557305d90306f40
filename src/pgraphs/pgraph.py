"""Depth-truncated slices of the coset graph of a cone semigroup.

A slice materializes, down to a word-length depth D, the graph whose
vertices over level x are the fiber of a coset model and whose edges are
generator-labelled truncation pairs.  All structural checks (rooted,
strongly simple, factorization, fiber counts, regularity to a depth,
product-of-trees) work purely on the stored edge data, so they detect
corrupted slices rather than silently reconstructing them.  A build
works out each level's residue caps once, as it lists the levels, for a
size guard that refuses the slice as soon as the levels listed hold too
many vertices, and hands them to every level-pair truncation map it
lists edges from.

The checks read the edges backward through one array, `parents`: per
generator, each vertex's unique predecessor, or a lost marker.  Two
forms are read off it: the step columns (per level and generator, the
position of each vertex's predecessor in the fiber below, fibers taken
in residue order) and the one ancestor table (per comparable level
pair, the ancestor of each vertex, in residue order).  The rooted check
runs on both.  Per-level and per-pair work is done once per slice: the
levels are ordered top-down once (Kahn's algorithm), and one list per
comparable pair x != y, `pair_steps`, holds the steps from x whose
target still reaches y, for the ancestor table, the rooted check and
the generator words to read.  Each column entry is one distinct edge
that steps by its generator, so every edge does exactly when the
columns all exist and count as many entries as there are edges; beyond
`parents` and that count, the rooted check reads the edges only to
name failures.  Its
report never raises, and every route that needs a rooted slice reads
it.  Factorization is proved from a passing rooted check and enumerated
on the ancestor table otherwise.  A slice whose levels form a cycle is
refused when it is made, so no check meets one.  Regularity is decided
by one positional isomorphism between cones when the rooted check
passes: per step, one map from a vertex's rank in its cone to its
predecessor's rank must serve every cone.  Steps are taken per
generator index, so two labels on one vector are two steps.  The cone
matcher decides otherwise, or where that map fails.  The square
condition reads the step columns of a slice that passes the rooted
check; any other slice is not a product of trees.  Failing slices take
per-vertex paths that name every failure.

Each decision has one routine.  `_assemble` lays out the vertices and
edges of every built slice, product and even-sum restriction;
`_generator_sums` lists the sums of at most D generators, for a slice's
levels and for a cone's offsets; `_eligible_levels` picks the levels
whose cone fits inside the slice, once per regularity check, for both
routes; `_squares` lists the squares (x, gi, gj) of the square
condition, which is decided on step columns alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, count, groupby, product, repeat
from math import prod
from operator import attrgetter, itemgetter
from typing import Iterator

from ._intlinalg import rational_rank, vadd, vsub
from .cone_semigroup import ConeSemigroup, GeneratorSet
from .coset_model import (
    CosetModel, Vertex, caps, fiber, mixed_radix, pair_vertex, positions_from_caps,
)
from .errors import LevelNotComparable, NotApplicable, SliceTooLarge
from .flat_core import GroupElement, rho

Edge = tuple[int, int, int]  # (from vertex index, to vertex index, generator index)

# Most vertices a slice or product may hold.  A built slice takes about
# 400 bytes per vertex with its edges, and about twice that under
# `graph-check --checks all` (example_5_2, pattern +1+2+3, depths 6-8:
# 36409 to 757305 vertices), so the limit keeps a build under about 1 GB
# and 4 s.
MAX_SLICE_VERTICES = 2_000_000


@dataclass(frozen=True)
class PGraphSlice:
    """Immutable slice: levels, fibers, and generator-labelled edges.

    Its levels form no cycle under generator steps: a slice whose levels
    do is refused with NotApplicable when it is made.  Slices from
    `_assemble`, and so their exports, index their vertices in canonical
    order (level, then residues, both lexicographic) and sort their
    edges.  An imported or hand-built slice may be in any order, and the
    checks do not rely on it.
    """

    generators: tuple[GroupElement, ...]
    depth: int
    levels: tuple[GroupElement, ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        self._levels_top_down  # raises NotApplicable on a level cycle

    @cached_property
    def level_set(self) -> frozenset[GroupElement]:
        return frozenset(self.levels)

    @cached_property
    def fiber_indices(self) -> dict[GroupElement, tuple[int, ...]]:
        out: dict[GroupElement, list[int]] = {x: [] for x in self.levels}
        for i, v in enumerate(self.vertices):
            out[v.level].append(i)
        return {x: tuple(ids) for x, ids in out.items()}

    @cached_property
    def fibers(self) -> dict[GroupElement, tuple[int, ...]]:
        """Each level's vertex indices in residue order."""
        key = self.vertices.__getitem__
        return {x: tuple(sorted(ids, key=key)) for x, ids in self.fiber_indices.items()}

    @cached_property
    def position(self) -> dict[int, int]:
        """Each vertex's position in its level's entry of `fibers`."""
        out: dict[int, int] = {}
        for ids in self.fibers.values():
            out.update(zip(ids, range(len(ids))))
        return out

    @cached_property
    def parents(self) -> tuple[list[int], ...]:
        """parents[g][w] is the unique g-predecessor of vertex w, read off
        the edges, or the lost marker len(vertices) when w has no g-edge
        in or several.  parents[g][lost] is lost, so a walk back that
        loses its way stays lost.  An edge off the generators is no step."""
        lost = len(self.vertices)
        rows: list[list] = [[None] * lost for _ in self.generators]
        for u, w, gi in self.edges:
            if 0 <= gi < len(rows):
                rows[gi][w] = u if rows[gi][w] is None else lost
        return tuple([lost if u is None else u for u in row] + [lost] for row in rows)

    @cached_property
    def vertex_levels(self) -> list[GroupElement | None]:
        """Each vertex's level, by index, then None for the lost marker."""
        return [*map(attrgetter("level"), self.vertices), None]

    @cached_property
    def step_columns(self) -> dict[tuple[GroupElement, int], tuple[int, ...] | None]:
        """cols[(y, gi)][i] is the position in fibers[y - g] of the
        g-predecessor of fibers[y][i], for each level y and generator g
        with y - g a level.  The column is None when some vertex over y
        has no g-edge in, several, or one from off level y - g."""
        out: dict[tuple[GroupElement, int], tuple[int, ...] | None] = {}
        for x, steps in self.level_steps.items():
            for gi, y in steps:
                us = list(map(self.parents[gi].__getitem__, self.fibers[y]))
                if set(map(self.vertex_levels.__getitem__, us)) <= {x}:
                    out[(y, gi)] = tuple(map(self.position.__getitem__, us))
                else:
                    out[(y, gi)] = None
        return out

    @cached_property
    def succ(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        out: list[dict[int, list[int]]] = [{} for _ in self.vertices]
        for u, w, g in self.edges:
            out[u].setdefault(g, []).append(w)
        return tuple({g: tuple(ws) for g, ws in d.items()} for d in out)

    @cached_property
    def root_index(self) -> int:
        zero = tuple([0] * len(self.levels[0]))
        ids = self.fiber_indices.get(zero, ())
        if len(ids) != 1:
            raise NotApplicable(f"slice has {len(ids)} vertices at level 0, want 1")
        return ids[0]

    @cached_property
    def level_steps(self) -> dict[GroupElement, tuple[tuple[int, GroupElement], ...]]:
        """(generator index, x + generator) for each step from x that stays in the slice."""
        return {
            x: tuple(
                (gi, y)
                for gi, gen in enumerate(self.generators)
                if (y := vadd(x, gen)) in self.level_set
            )
            for x in self.levels
        }

    @cached_property
    def _levels_top_down(self) -> tuple[GroupElement, ...]:
        """Levels ordered so that x + g comes before x for every step g.

        Kahn's algorithm (Comm. ACM 5(11), 1962) over `level_steps` lists
        a level once every step into it comes from a listed level, so x
        comes before x + g; the order is that list reversed.  A level
        never listed lies on a cycle, or above one."""
        steps = self.level_steps
        into = dict.fromkeys(steps, 0)  # steps into each level from levels not yet listed
        for ups in steps.values():
            for _, y in ups:
                into[y] += 1
        order = [x for x, n in into.items() if not n]
        for x in order:  # the list grows while it is read
            for _, y in steps[x]:
                into[y] -= 1
                if not into[y]:
                    order.append(y)
        if len(order) < len(into):
            raise NotApplicable("level graph has a cycle")
        return tuple(reversed(order))

    @cached_property
    def reachable(self) -> dict[GroupElement, frozenset[GroupElement]]:
        """Levels reachable from each level by generator steps (incl. itself)."""
        out: dict[GroupElement, set[GroupElement]] = {}
        for x in self._levels_top_down:
            acc = {x}
            for _, y in self.level_steps[x]:
                acc |= out[y]
            out[x] = acc
        return {x: frozenset(s) for x, s in out.items()}

    def gen_words(self, x: GroupElement, y: GroupElement) -> list[tuple[int, ...]]:
        """All generator words leading from level x to level y in the slice:
        a step of pair_steps[(x, y)] followed by each word onward."""
        steps = self.pair_steps.get((x, y), ())
        if x == y:
            return [()] if x in self.level_set else []
        return [(gi,) + w for gi, nxt in steps for w in self.gen_words(nxt, y)]

    def walk_back(self, w: int, word: tuple[int, ...]) -> int | None:
        """Ancestor of w obtained by undoing the word's steps in reverse."""
        for g in reversed(word):
            w = self.parents[g][w]
        return None if w == len(self.vertices) else w

    @cached_property
    def pair_steps(
        self,
    ) -> dict[tuple[GroupElement, GroupElement], list[tuple[int, GroupElement]]]:
        """For each pair of levels x != y with y reachable from x: the
        steps (gi, x + g) of level_steps[x] whose target still reaches y,
        in level_steps order.  Pairs come with x in top-down order, so a
        pair comes after every pair (x + g, y) its steps lead to.  The
        ancestor table, the rooted check and gen_words read these lists."""
        reachable, out = self.reachable, {}
        for x in self._levels_top_down:
            for step in self.level_steps[x]:
                for y in reachable[step[1]]:
                    out.setdefault((x, y), []).append(step)
        return out

    @cached_property
    def ancestor_table(self) -> dict[tuple[GroupElement, GroupElement], list[int]]:
        """amap[(x, y)][i] is the ancestor at level x of fibers[y][i]: the
        vertex `walk_back` reaches along the first word of gen_words(x, y),
        or the lost marker len(vertices) where a step back is not unique.

        That word starts with the smallest generator g whose target x + g
        still reaches y, the first of pair_steps[(x, y)], and continues
        with the first word from x + g, so amap[(x, y)] is amap[(x + g,
        y)] followed by one step back along g.  Pairs are visited in
        pair_steps order, top-down, so that map exists.  Entries are
        vertex ids, not positions: on a corrupted slice a walk can leave
        its level, and the failure paths must see where it went.
        """
        parents = self.parents
        table = {(x, x): list(ids) for x, ids in self.fibers.items()}
        for pair, steps in self.pair_steps.items():
            gi, nxt = steps[0]
            table[pair] = list(map(parents[gi].__getitem__, table[(nxt, pair[1])]))
        return table

    def ancestor(self, w: int, x: GroupElement) -> int | None:
        """Ancestor of vertex w at level x along the first generator word."""
        amap = self.ancestor_table.get((x, self.vertices[w].level))
        v = None if amap is None else amap[self.position[w]]
        return None if v == len(self.vertices) else v

    @cached_property
    def rooted_report(self) -> CheckReport:
        """The report of `check_rooted_strongly_simple`, computed once."""
        return _rooted_strongly_simple(self)


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    failures: tuple[str, ...] = ()
    witnesses: tuple = ()
    details: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Construction


def _generator_sums(gens: tuple[GroupElement, ...], rank: int, depth: int) -> Iterator[set]:
    """The sums of at most `depth` generators, one layer at a time: {0},
    then for k = 1, ..., depth the sums of k generators that are not sums
    of fewer."""
    zero = tuple([0] * rank)
    sums, frontier = {zero}, {zero}
    for _ in range(depth):
        yield frontier
        frontier = {vadd(x, g) for x in frontier for g in gens} - sums
        sums |= frontier
    yield frontier


def _assemble(generators, depth: int, fibers, steps) -> PGraphSlice:
    """Lay out a slice: the one place its vertex and edge order is made.

    `fibers` yields (level, vertices in residue order), in level order,
    and the vertices are indexed in that order, so each level's fiber is
    one block of indices.  `steps` yields (x, y, gi, positions), the
    i-th vertex over y having its gi-predecessor at positions[i] over
    x, with y in level order; each step becomes one block of edges.
    Both are read once, in turn, and each fiber is dropped once copied.

    Edges come out sorted.  With distinct generators a sort on the
    source alone does it.  Target levels y come in the order of their
    index blocks, and each step lists its targets in ascending order.
    The generators are distinct, so a source u meets at most one g per
    target level, and it meets its edges in ascending target w.  The
    stable sort on u keeps that order, and (u, w) fixes g = level(w) -
    level(u), so the result is the sorted triples.  A repeated
    generator, as in the product of a factor imported with two labels
    on one step vector, breaks that, and then the edges take a full sort.
    """
    vertices, edges, start = [], [], {}  # start: each level's first vertex index
    for x, fiber_x in fibers:
        start[x] = len(vertices)
        vertices.extend(fiber_x)
        del fiber_x  # a built fiber is a list; let it go before the edges grow
    for x, y, gi, positions in steps:
        edges.extend(zip(map(start[x].__add__, positions), count(start[y]), repeat(gi)))
    edges.sort(key=itemgetter(0) if len(set(generators)) == len(generators) else None)
    return PGraphSlice(tuple(generators), depth, tuple(start), tuple(vertices), tuple(edges))


def build_slice(
    P: ConeSemigroup,
    generators: GeneratorSet | tuple[GroupElement, ...] | list[GroupElement],
    model: CosetModel,
    depth: int,
) -> PGraphSlice:
    """Build the depth-D slice over a coset model.

    Levels are all sums of at most D generators, closed downward (x in
    the slice and x - sigma in the cone implies x - sigma in the slice);
    fibers and edges follow the model's enumeration and truncation.  The
    generators, a GeneratorSet's sigma or the sorted distinct tuple of a
    plain list, are checked first, so that the closure ends:
    `ConeSemigroup.check_descending` refuses a nonzero generator outside
    the cone or in its uniscalar kernel; a GeneratorSet, the cone's
    Hilbert basis, always passes.  The cone is closed under sums, so then
    no level lies outside it.  The fiber over x has
    prod(caps(model, x)) vertices.  The levels are listed one layer of
    sums at a time, each layer closed downward as it comes, so after k
    layers the listed levels are those of the depth-k slice, and a
    running count holds its size.  SliceTooLarge refuses the slice at
    the first k whose count passes MAX_SLICE_VERTICES: before any fiber
    is listed, and without listing the levels of the deeper layers.

    `_assemble` lays out the sorted levels' fibers and one step per
    level y and generator g with y - g a level: the i-th vertex over y
    goes to the position over y - g of its truncation.  The caps worked
    out for the size guard are handed to positions_from_caps, which
    builds that map, so each level's caps are computed once, not once
    per level pair.
    """
    if model.flat_spec() != P.spec:
        raise NotApplicable("model does not derive the cone's flat-group spec")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(generators, GeneratorSet):
        gens = tuple(generators.sigma)
    else:
        gens = tuple(sorted({tuple(g) for g in generators}))
    P.check_descending(gens)

    cap_at, size = {}, 0  # each level's caps; the vertices over the levels listed
    for layer in _generator_sums(gens, P.spec.rank, depth):
        todo = list(layer)
        while todo:  # the layer closed downward: each level is stepped down from once
            if (x := todo.pop()) in cap_at:
                continue
            cap_at[x] = cap = caps(model, x)
            size += prod(cap)
            todo += [y for g in gens if (y := vsub(x, g)) not in cap_at and P.contains(y)]
        if size > MAX_SLICE_VERTICES:
            raise SliceTooLarge(size, MAX_SLICE_VERTICES)
    cap_at = dict(sorted(cap_at.items()))
    fibers = ((x, fiber(model, P, x, cap)) for x, cap in cap_at.items())
    steps = (
        (x, y, gi, positions_from_caps(model, x, y, cap_at[x], cap_y))
        for y, cap_y in cap_at.items()
        for gi, g in enumerate(gens)
        if (x := vsub(y, g)) in cap_at
    )
    return _assemble(gens, depth, fibers, steps)


# ---------------------------------------------------------------------------
# Structural checks


def check_rooted_strongly_simple(slice_: PGraphSlice) -> CheckReport:
    """Root reachability plus path-independence of ancestors.

    Verifies (a) a single root whose descendants cover the slice, (b)
    that each edge steps by its generator's vector and that each vertex
    has exactly one sigma-predecessor wherever the level below exists,
    and (c) for every comparable level pair, all generator words induce the
    same ancestor map on the upper fiber.

    The report is computed once per slice and cached as `rooted_report`.
    It never raises on slice data: a level 0 without exactly one vertex
    is its one failure.

    Parts (a) and (b) are first decided wholesale, from the step columns
    and the edge count.  Each column entry is one distinct edge, the
    unique g-edge into its vertex, and it steps by g from the level
    below.  When every column exists, any other edge fails to step by
    its generator: an extra g-edge into w, with level(w) - g a level,
    would give w two g-edges and remove its column, and with that level
    missing, or g no generator index, no edge can step by g into w.  So
    part (b) holds exactly when every column exists and the edges are as
    many as the column entries.  Given (b), part (a) holds exactly when
    every level holding a vertex is reachable from level 0 by generator
    steps: along such a path each vertex has a predecessor one step
    down, back to the root, and every edge steps up a generator.  Only
    when either fails are the edges read one by one, to name the
    failures.

    Part (c) runs on `ancestor_table` rather than walking every word.
    A word from x to y is a step g from x followed by a word from x + g
    to y.  So when all words from each such x + g agree, the words from
    x agree exactly when stepping amap[(x + g, y)] back along g gives
    amap[(x, y)] for every g, the steps of pair_steps[(x, y)].  A pair
    that fails this test is marked, and so is every pair (x', y) with a
    step from x' into a marked pair.  Only marked pairs walk their other
    words to name the disagreeing ones, against the first word's
    ancestors in the table, so the failures, and their order, are those
    of walking the words of every pair.
    """
    return slice_.rooted_report


def _rooted_strongly_simple(slice_: PGraphSlice) -> CheckReport:
    """The rooted check's report; see check_rooted_strongly_simple."""
    try:
        root = slice_.root_index
        reach = slice_.reachable[slice_.vertices[root].level]
    except NotApplicable as exc:
        return CheckReport("rooted_strongly_simple", False, (str(exc),))

    cols, fibers = slice_.step_columns, slice_.fibers
    if (
        None in cols.values()
        or len(slice_.edges) != sum(len(fibers[y]) for y, _ in cols)
        or any(ids for x, ids in slice_.fiber_indices.items() if x not in reach)
    ):
        failures, witnesses = _rooted_failures(slice_, root)
        return CheckReport(
            "rooted_strongly_simple", False, tuple(failures), tuple(witnesses)
        )

    failures, witnesses = [], []
    table, parents = slice_.ancestor_table, slice_.parents
    marked: set[tuple[GroupElement, GroupElement]] = set()
    for (x, y), ups in slice_.pair_steps.items():
        # the first step built table[(x, y)]; the others must agree with it
        if any((nxt, y) in marked for _, nxt in ups) or any(
            list(map(parents[gi].__getitem__, table[(nxt, y)])) != table[(x, y)]
            for gi, nxt in ups[1:]
        ):
            marked.add((x, y))

    for x in slice_.levels:
        for y in slice_.reachable[x]:
            if (x, y) not in marked:
                continue
            words = slice_.gen_words(x, y)
            ref = dict(zip(slice_.fibers[y], table[(x, y)]))  # (b) holds: none is lost
            for word in words[1:]:
                for w in slice_.fiber_indices[y]:
                    got = slice_.walk_back(w, word)
                    if got != ref[w]:
                        failures.append(
                            f"vertex {slice_.vertices[w]} has word-dependent ancestors "
                            f"at level {x}: words {words[0]} vs {word}"
                        )
                        witnesses.append(("ambiguous", w, x, words[0], word))
    return CheckReport(
        "rooted_strongly_simple", not failures, tuple(failures), tuple(witnesses)
    )


def _rooted_failures(slice_: PGraphSlice, root: int) -> tuple[list[str], list]:
    """Per-edge and per-vertex failures and witnesses: the edges that do
    not step by their generator and the in-degrees of part (b), then
    reachability from the root, part (a)."""
    failures: list[str] = []
    witnesses: list = []
    gens, vertices = slice_.generators, slice_.vertices
    for u, w, gi in slice_.edges:
        x, y = vertices[u].level, vertices[w].level
        if not 0 <= gi < len(gens) or vsub(y, x) != gens[gi]:
            failures.append(f"edge {vertices[u]} -> {vertices[w]} steps by {vsub(y, x)}, "
                            f"not by generator {gi}")
            witnesses.append(("step", u, w, gi))
    in_degree = Counter((w, gi) for _, w, gi in slice_.edges)
    for w, v in enumerate(vertices):
        for gi, g in enumerate(gens):
            below = vsub(v.level, g)
            expected = 1 if below in slice_.level_set else 0
            got = in_degree[(w, gi)]
            if got != expected:
                failures.append(
                    f"vertex {v} has {got} predecessors along generator {gi}, want {expected}"
                )
                witnesses.append(("in_degree", w, gi, got, expected))

    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for ws in slice_.succ[u].values():
            for w in ws:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    for w in range(len(vertices)):
        if w not in seen:
            failures.append(f"vertex {vertices[w]} unreachable from root")
            witnesses.append(("unreachable", w))
    return failures, witnesses


def check_factorization(slice_: PGraphSlice) -> CheckReport:
    """Unique-intermediate property for every split of every morphism.

    For each morphism v -> w of degree y - x and each slice level z with
    x <= z <= y, exactly one u in fiber(z) must satisfy both v -> u and
    u -> w.  Verified exhaustively on the slice.

    A u in fiber(z) with u -> w is w's ancestor at z, so at most one u
    qualifies: the count is 1 when anc(anc(w, z), x) == anc(w, x) and 0
    otherwise.

    A slice that passes the rooted check passes this one, so then the
    cached rooted report decides it.  By part (b) each vertex over y has
    exactly one g-predecessor, over y - g, wherever y - g is a level, so
    walking back along any word stays on the slice and anc(w, x) exists.
    The first word from x to z followed by the first word from z to y is
    a word from x to y, and walking back along it gives
    anc(anc(w, z), x).  By part (c) every word from x to y gives the
    same ancestor, anc(w, x).  So every count is 1.  Any other slice is
    enumerated.
    """
    if slice_.rooted_report.ok:
        return CheckReport("factorization", True)
    return _factorization_by_enumeration(slice_)


def _factorization_by_enumeration(slice_: PGraphSlice) -> CheckReport:
    """check_factorization by counting every split.

    All three ancestors are lookups in the ancestor table, whose map for
    (x, z) covers only fiber(z), so an ancestor of w that is lost, or
    that left fiber(z) on a corrupted slice, counts 0.
    """
    reachable = slice_.reachable
    failures: list[str] = []
    witnesses: list = []
    table, position, lost = slice_.ancestor_table, slice_.position, len(slice_.vertices)
    level = slice_.vertex_levels
    for x in slice_.levels:
        for y in reachable[x]:
            to_x = table[(x, y)]
            for z in reachable[x]:
                if y not in reachable[z]:
                    continue
                to_z, z_to_x = table[(z, y)], table[(x, z)]
                for w in slice_.fiber_indices[y]:
                    i = position[w]
                    if (v := to_x[i]) == lost:
                        failures.append(
                            f"no ancestor of {slice_.vertices[w]} at level {x}"
                        )
                        witnesses.append(("no_ancestor", w, x))
                        continue
                    u = to_z[i]
                    count = 1 if level[u] == z and z_to_x[position[u]] == v else 0
                    if count != 1:
                        failures.append(
                            f"split {x}->{z}->{y} of morphism to {slice_.vertices[w]}"
                            f" has {count} intermediates, want 1"
                        )
                        witnesses.append(("split", w, x, z, y, count))
    return CheckReport("factorization", not failures, tuple(failures), tuple(witnesses))


def check_fiber_regularity(slice_: PGraphSlice) -> CheckReport:
    """Fiber sizes must be multiplicative along generator steps.

    With R the levels reachable from 0, the check asks |fiber(0)| = 1
    and |fiber(x)| = |fiber(x - g)| * |fiber(g)| for every x in R and
    generator g with x - g in R, where |fiber(g)| is 0 when g is not a
    level.

    This decides locally what enumerating expressions decides: that
    |fiber(x)| is the product of the generators' fiber sizes over every
    expression of x as a generator multiset whose partial sums, taken in
    generator order, are levels.  Those partial sums run from 0 through
    R, so by induction along them a pass here gives every expression's
    product.  Conversely, when x - g is a level whenever x is a level
    and x - g a sum of generators, as in a slice from `build_slice`,
    every multiset summing to a level is an expression.  An expression
    c of x - g then gives the expression c + g of x, so the
    enumeration's pass gives the rule.  On such slices the two agree
    exactly; on others this rule is the stricter one.
    """
    failures: list[str] = []
    witnesses: list = []
    zero = tuple([0] * len(slice_.levels[0]))
    size = {x: len(ids) for x, ids in slice_.fiber_indices.items()}
    reach = slice_.reachable.get(zero, frozenset())
    if (root := size.get(zero, 0)) != 1:
        failures.append(f"level {zero}: fiber has {root}, want 1")
        witnesses.append(("fiber_count", zero, None, 1, root))
    for x in slice_.levels:  # x - g in R and x a level puts x in R
        for gi, g in enumerate(slice_.generators):
            below = vsub(x, g)
            if below not in reach:
                continue
            expected = size[below] * size.get(g, 0)
            if expected != size[x]:
                failures.append(
                    f"level {x}: fiber has {size[x]}, but level {below} times"
                    f" generator {gi} predicts {expected}"
                )
                witnesses.append(("fiber_count", x, gi, expected, size[x]))
    return CheckReport(
        "fiber_regularity", not failures, tuple(failures), tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# Regularity via descendant cones


def _eligible_levels(slice_: PGraphSlice, depth_d: int) -> tuple[set, list[GroupElement]]:
    """D, the sums of at most depth_d generators, and the levels x whose
    full depth_d cone fits inside the slice: x + delta is a level for
    every delta in D.  The levels are filtered one layer of D at a time,
    and the listing stops once none is left, so a depth_d beyond the
    slice costs no more than the slice's own depth; D is then partial,
    but with no level left it is not read."""
    deltas, fits = set(), list(slice_.levels)
    for layer in _generator_sums(slice_.generators, len(slice_.levels[0]), depth_d):
        deltas |= layer
        fits = [x for x in fits if all(vadd(x, d) in slice_.level_set for d in layer)]
        if not fits:
            break
    return deltas, fits


@dataclass(frozen=True)
class DescendantCone:
    """Descendants of a root vertex within a depth, as slice vertex indices.

    `order` is the BFS order from the root, `tree_edge` the BFS tree edge
    (parent, generator) into each other node, `offset` each node's level
    minus the root's, and `edges` the labelled slice edges among them.
    """

    order: tuple[int, ...]
    tree_edge: dict[int, tuple[int, int]]
    offset: dict[int, GroupElement]
    edges: frozenset[Edge]

    @cached_property
    def incident(self) -> dict[int, list[Edge]]:
        """The edges at each node, in slice order."""
        out: dict[int, list[Edge]] = {u: [] for u in self.order}
        for e in sorted(self.edges):
            out[e[0]].append(e)
            out[e[1]].append(e)
        return out

    @cached_property
    def colours(self) -> dict[int, int]:
        """Stable colours of colour refinement started from the offsets.

        A round hashes each node's colour with the sorted (generator,
        source colour, target colour) of its edges; refinement stops at
        the first round that splits no class.  Every round is a function
        of the labelled graph, so an isomorphism of cones keeps colours.
        """
        colour: dict = dict(self.offset)
        classes = len(set(colour.values()))
        incident = self.incident
        while True:
            colour = {
                u: hash((c, tuple(sorted((g, colour[a], colour[b]) for a, b, g in incident[u]))))
                for u, c in colour.items()
            }
            if len(set(colour.values())) <= classes:
                return colour
            classes = len(set(colour.values()))


def descendant_cone(slice_: PGraphSlice, v: int, depth: int) -> DescendantCone:
    """Induced subgraph on descendants of v within `depth` generator steps.

    Nodes carry the level offset from v; edges carry the generator index.
    Every labelled slice edge among the nodes is kept, so a corrupted
    slice that joins two nodes along several generators keeps each.
    """
    tree_edge: dict[int, tuple[int, int]] = {}  # each node but v: (BFS parent, generator)
    frontier = [v]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for g, ws in slice_.succ[u].items():
                for w in ws:
                    if w != v and w not in tree_edge:
                        tree_edge[w] = (u, g)
                        nxt.append(w)
        frontier = nxt
    order = (v, *tree_edge)
    nodes, base = set(order), slice_.vertices[v].level
    return DescendantCone(
        order=order,
        tree_edge=tree_edge,
        offset={u: vsub(slice_.vertices[u].level, base) for u in order},
        edges=frozenset(
            (u, w, g) for u in order for g, ws in slice_.succ[u].items() for w in ws if w in nodes
        ),
    )


def cone_certificate(slice_: PGraphSlice, v: int, depth: int) -> str:
    """Deterministic isomorphism-invariant digest of a descendant cone's
    stable colours; equal for isomorphic cones."""
    import hashlib  # only this function hashes; a module-level import slows every CLI start

    colours = descendant_cone(slice_, v, depth).colours
    return hashlib.sha256(repr(sorted(colours.values())).encode()).hexdigest()


def cones_isomorphic(c1: DescendantCone, c2: DescendantCone) -> bool:
    """Whether some bijection of nodes keeps offsets and maps the labelled
    edges of c1 onto those of c2.

    c1's nodes are mapped in BFS order, backtracking on an explicit stack.
    The root may go to any c2 node of its colour; another node u, with
    BFS tree edge (p, u, g), to an unused g-child of p's image of u's
    colour.  A candidate must also have u's offset, and every c1 edge
    between u and a mapped node must map to a c2 edge.

    Complete: an isomorphism keeps colours and offsets and maps (p, u, g)
    to an edge, so its image of u is always a candidate, and all are
    tried.  Sound: a full map is injective on equally many nodes and maps
    every c1 edge to a c2 edge, so with equal edge counts it is onto them.
    """
    if (len(c1.order), len(c1.edges), sorted(c1.colours.values())) != (
        len(c2.order), len(c2.edges), sorted(c2.colours.values())
    ):
        return False
    phi: dict[int, int] = {}
    used: set[int] = set()

    def candidates(u: int):
        if u == c1.order[0]:
            pool = c2.order
        else:
            p, g = c1.tree_edge[u]
            pool = [b for a, b, h in c2.incident[phi[p]] if a == phi[p] and h == g]
        key = (c1.colours[u], c1.offset[u])
        for w in pool:
            if (c2.colours[w], c2.offset[w]) != key or w in used:
                continue
            phi[u] = w
            if all(
                (phi[a], phi[b], g) in c2.edges
                for a, b, g in c1.incident[u]
                if a in phi and b in phi
            ):
                yield w
        phi.pop(u, None)

    stack = [candidates(c1.order[0])]
    while stack:
        used.discard(phi.get(c1.order[len(stack) - 1]))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
        elif len(stack) == len(c1.order):
            return True
        else:
            used.add(w)
            stack.append(candidates(c1.order[len(stack)]))
    return False


def check_regularity(slice_: PGraphSlice, depth_d: int) -> CheckReport:
    """Descendant cones truncated to depth_d are pairwise isomorphic.

    Only vertices whose full depth_d cone fits inside the slice take
    part: those over a level x with x + delta a level for every delta in
    D, the sums of at most depth_d generators.  When the slice passes
    the rooted check, `_cones_agree_by_position` tries one explicit
    isomorphism between every two cones, with repeated generator labels
    or without; if it holds for all of them, the check passes.
    Otherwise, and on any other slice, the matcher
    (`_regularity_by_matcher`) decides.
    """
    if depth_d < 0:
        raise ValueError("depth_d must be >= 0")
    deltas, levels = _eligible_levels(slice_, depth_d)
    cones = sum(len(slice_.fiber_indices[x]) for x in levels)
    if cones and _cones_agree_by_position(slice_, deltas, levels):
        details = (f"compared {cones} cones at depth {depth_d}",)
        return CheckReport("regularity", True, details=details)
    return _regularity_by_matcher(slice_, depth_d, levels)


def _cones_agree_by_position(slice_: PGraphSlice, deltas: set, levels: list) -> bool:
    """Whether the slice passes the rooted check and has one rank map per
    step for every cone rooted over `levels`.

    The cone of v over x is every w with level(w) - x in D and
    anc(w, x) = v; its edges are the g-edges into each such w, for each
    g with level(w) - x - g in D.  Proof, from parts (b) and (c) of the
    rooted check.  A path of at most depth_d edges from v to w steps by
    generators, so level(w) - x lies in D, and walking w back along it
    reaches v, so anc(w, x) = v.  Conversely, write level(w) - x as
    g1 + ... + gk with k <= depth_d.  Each partial sum lies in D, so x
    plus it is a level, as v is eligible.  Walking w back along that
    word follows unique predecessors to anc(w, x) = v: a path of k
    edges.  A cone edge u -> w along g has u = pred_g(w), at offset
    level(w) - x - g in D.  Conversely, when that offset lies in D,
    pred_g(w) lies over a level, has ancestor v at x, and so is in the
    cone.

    The rank of w over x + d is the number of vertices before it over
    x + d, in residue order, with its ancestor at x: the cone of v has
    its nodes at offset d ranked 0, 1, ..., in residue order.  The test
    asks (i) that every cone, over every level in `levels`, has the
    same number n_d of nodes at each offset d in D, and (ii) that for
    each step (d, g) with d - g in D, the pairs (rank(w),
    rank(pred_g(w))) over all w at offset d form one set of n_d pairs
    at every level.  By (i) each cone gives a pair for every rank below
    n_d, so by (ii) the rank of pred_g(w) is one function f of the rank
    of w, the same in every cone.  Two cones are then isomorphic: send
    the node of rank r at each offset of one to the node of rank r at
    that offset of the other.  That map keeps offsets, is a bijection
    by (i), and sends each edge pred_g(w) -> w to the g-edge into the
    image of w, by f.  Both cones have equally many edges, so it maps
    edges onto edges.  So every cone is in one isomorphism class, which
    is the matcher's pass.  A level with an empty fiber roots no cone.

    Cone edges and rank maps are taken per generator index, so repeated
    labels need nothing more.  Two labels gi and gj on one vector g give
    two steps (d, gi) and (d, gj), which share one e = d - g, and each
    step has its own rank map.  The descendant cone keeps every labelled
    edge, and the map of rank r to rank r sends each gi-edge of one cone
    to the gi-edge into the image of its target, by the map of (d, gi).
    """
    gens = slice_.generators
    if not slice_.rooted_report.ok:
        return False
    table, cols, fibers = slice_.ancestor_table, slice_.step_columns, slice_.fibers
    position = slice_.position
    steps = [(d, gi, e) for d in deltas for gi, g in enumerate(gens) if (e := vsub(d, g)) in deltas]
    count, pairs = {}, {}  # per offset: n_d; per step: its (rank, predecessor rank) pairs
    for x in levels:
        if not fibers[x]:
            continue
        rank = {}  # per offset: each vertex's rank, in residue order
        for d in deltas:
            seen, rank[d] = [0] * len(fibers[x]), []
            for a in map(position.__getitem__, table[(x, vadd(x, d))]):
                rank[d].append(seen[a])
                seen[a] += 1
            if set(seen) != {count.setdefault(d, seen[0])}:
                return False
        for d, gi, e in steps:
            got = set(zip(rank[d], map(rank[e].__getitem__, cols[(vadd(x, d), gi)])))
            if len(got) != count[d] or pairs.setdefault((d, gi), got) != got:
                return False
    return True


def _regularity_by_matcher(slice_: PGraphSlice, depth_d: int, levels: list) -> CheckReport:
    """check_regularity by sorting every cone into isomorphism classes,
    one cone per vertex over `levels`, the eligible levels at depth_d.

    Each cone is compared by `cones_isomorphic`, which is complete and
    sound, with the first cone of each class.  The vertices outside the
    largest class fail, so a corruption inside one cone blames that
    cone's root rather than every other vertex.  On a tie the class
    found first counts as the largest; it holds the first eligible
    vertex whenever that vertex's class is among the largest.
    """
    fits = set(levels)
    eligible = [i for i, v in enumerate(slice_.vertices) if v.level in fits]
    if not eligible:
        return CheckReport("regularity", True, details=("no eligible vertices",))
    classes: list[tuple[DescendantCone, list[int]]] = []
    for v in eligible:
        cone = descendant_cone(slice_, v, depth_d)
        members = next((m for rep, m in classes if cones_isomorphic(rep, cone)), None)
        if members is None:
            classes.append((cone, [v]))
        else:
            members.append(v)
    majority = set(max((m for _, m in classes), key=len))
    outliers = [v for v in eligible if v not in majority]
    return CheckReport(
        "regularity",
        not outliers,
        tuple(
            f"descendant cone of {slice_.vertices[v]} differs from the majority cone"
            f" at depth {depth_d}"
            for v in outliers
        ),
        tuple(("cone", v, depth_d) for v in outliers),
        details=(f"compared {len(eligible)} cones at depth {depth_d}",),
    )


# ---------------------------------------------------------------------------
# Common descendants and products of trees


def common_descendants(
    slice_: PGraphSlice, alpha: Vertex, beta: Vertex, z: GroupElement
) -> int:
    """Number of fiber(z) vertices truncating to alpha and beta.

    alpha and beta are each found by a scan of their own level's fiber,
    as the count scans fiber(z); the slice keeps no per-vertex index."""
    z = tuple(z)
    if z not in slice_.level_set:
        raise LevelNotComparable(f"level {z} is not in the slice")
    vertices, fibers = slice_.vertices, slice_.fiber_indices
    ai, bi = (next((i for i in fibers.get(v.level, ()) if vertices[i] == v), None)
              for v in (alpha, beta))
    if ai is None or bi is None:
        raise LevelNotComparable("vertex not in slice")
    for lvl in (alpha.level, beta.level):
        if z not in slice_.reachable.get(lvl, frozenset()):
            raise LevelNotComparable(f"level {lvl} is not below {z}")
    to_a = slice_.ancestor_table[(alpha.level, z)]
    to_b = slice_.ancestor_table[(beta.level, z)]
    return sum(1 for a, b in zip(to_a, to_b) if a == ai and b == bi)


PRODUCT_OF_TREES = "product_of_trees"
NOT_PRODUCT = "not_product"
NOT_FREE = "not_free_semigroup"


@dataclass(frozen=True)
class ProductOfTreesResult:
    status: str
    witness: tuple | None = None

    @property
    def is_product(self) -> bool:
        return self.status == PRODUCT_OF_TREES


def check_product_of_trees(slice_: PGraphSlice) -> ProductOfTreesResult:
    """Square condition: children of a vertex along two distinct
    generators have exactly one common descendant one level up.

    A generator set with rational relations cannot give a product of
    trees at all; that is reported separately as not_free_semigroup.
    A product of trees is rooted and strongly simple, so a slice that
    fails the rooted check is not_product, with witness ("not_rooted",).

    Every other slice is decided on step columns.  Each w over x + g + h
    has a = pred_h(w) over x + g and b = pred_g(w) over x + h, and by
    part (c) both have the parent anc(w, x): (a, b) is a pair of
    siblings.  So every sibling pair has exactly one common child
    exactly when the w's pairs are distinct and as many as the sibling
    pairs.  Where that fails, the witness (x, gi, gj, a, b, count) names
    the first failing (v, a, b) in vertex-index order, whatever the
    order of the edges.
    """
    gens = slice_.generators
    if gens and rational_rank(gens) < len(gens):
        return ProductOfTreesResult(NOT_FREE)
    if not slice_.rooted_report.ok:
        return ProductOfTreesResult(NOT_PRODUCT, ("not_rooted",))
    cols, fibers, position = slice_.step_columns, slice_.fibers, slice_.position
    for x, gi, gj, xg, xh, xgh in _squares(slice_):
        counts = Counter(zip(cols[(xgh, gj)], cols[(xgh, gi)]))
        parents = [cols[(xg, gi)], cols[(xh, gj)]]
        sizes_h = Counter(parents[1])
        siblings = sum(n * sizes_h[p] for p, n in Counter(parents[0]).items())
        if len(counts) == len(fibers[xgh]) == siblings:
            continue
        kids = [[[] for _ in fibers[x]] for _ in parents]  # per parent position: its children
        for kids_at, up, column in zip(kids, (xg, xh), parents):  # along gi, then gj
            for a in slice_.fiber_indices[up]:  # in vertex-index order
                kids_at[column[position[a]]].append(a)
        for v in slice_.fiber_indices[x]:
            p = position[v]
            for a in kids[0][p]:
                for b in kids[1][p]:
                    if (c := counts[(position[a], position[b])]) != 1:
                        return ProductOfTreesResult(NOT_PRODUCT, (x, gi, gj, a, b, c))
    return ProductOfTreesResult(PRODUCT_OF_TREES)


def _squares(slice_: PGraphSlice) -> Iterator[tuple]:
    """Each square (x, gi, gj) with gi < gj whose corners xg = x + g_i,
    xh = x + g_j and xgh = xg + g_j are levels, as (x, gi, gj, xg, xh,
    xgh), x in level order."""
    gens, level_set = slice_.generators, slice_.level_set
    for x in slice_.levels:
        for gi, gj in combinations(range(len(gens)), 2):
            xg, xh = vadd(x, gens[gi]), vadd(x, gens[gj])
            xgh = vadd(xg, gens[gj])
            if {xg, xh, xgh} <= level_set:
                yield x, gi, gj, xg, xh, xgh


def predict_product_of_trees(spec, generators) -> bool:
    """Predict the square condition from component supports alone.

    True when the generators touch pairwise disjoint component sets, the
    situation produced by pairwise coprime expansion-contraction volumes
    scale(g) * scale(-g); in that case each generator drives its own
    block of residues and the slice is a product of trees.
    """
    gens = (
        tuple(generators.sigma)
        if isinstance(generators, GeneratorSet)
        else tuple(map(tuple, generators))
    )
    if gens and rational_rank(gens) < len(gens):
        raise NotApplicable("generator set is not free")
    supports = [
        frozenset(j for j, r in enumerate(rho(spec, g)) if r != 0) for g in gens
    ]
    return all(not (a & b) for a, b in combinations(supports, 2))


# ---------------------------------------------------------------------------
# External products


def external_product(slices: list[PGraphSlice] | tuple[PGraphSlice, ...]) -> PGraphSlice:
    """Componentwise product of rooted, strongly simple slices.

    The product holds the product of the factors' vertex counts, and
    SliceTooLarge refuses more than MAX_SLICE_VERTICES before anything
    is expanded.

    Levels and residues concatenate; an edge moves one factor along one
    of its generators and fixes the rest.  `_assemble` lays out the
    level combinations, lexicographic in each factor's sorted levels,
    each over the product of the factors' fibers sorted by residues, so
    each combination is one block in mixed radix.  That is the (level,
    residues) order unless a factor level repeats a vertex or holds a
    residue tuple that is a proper prefix of another, which no slice
    from build_slice, external_product or an export does.

    A factor passes the rooted check, so each vertex over y has one
    g-predecessor, over y - g, if y - g is a level, and none otherwise.
    Its g-edges into fiber(y) form its step column into y, and the
    product's step along g into a block expands that column in mixed
    radix.
    """
    if not slices:
        raise ValueError("need at least one slice")
    size = prod(len(s.vertices) for s in slices)
    if size > MAX_SLICE_VERTICES:
        raise SliceTooLarge(size, MAX_SLICE_VERTICES, "product would hold")
    for i, s in enumerate(slices, 1):
        if not (report := s.rooted_report).ok:
            raise NotApplicable(f"factor {i} fails the rooted check: {report.failures[0]}")

    ranks = [len(s.levels[0]) for s in slices]
    labelled = sorted(
        ((0,) * sum(ranks[:i]) + g + (0,) * sum(ranks[i + 1 :]), i, gi)
        for i, s in enumerate(slices)
        for gi, g in enumerate(s.generators)
    )
    gen_map = {(i, gi): new for new, (_, i, gi) in enumerate(labelled)}
    residues, columns = [], []  # per factor and level: residues; (gi, level below, column)
    for s in slices:
        ids_at = {x: ids for x, ids in sorted(s.fibers.items()) if ids}
        residues.append({x: [s.vertices[v].residues for v in ids] for x, ids in ids_at.items()})
        columns.append({y: [(gi, x, s.step_columns[(y, gi)])
                            for gi, g in enumerate(s.generators) if (x := vsub(y, g)) in ids_at]
                        for y in ids_at})
    fibers = (
        (level, map(pair_vertex, zip(repeat(level), map(sum, product(*parts), repeat(())))))
        for combo in product(*residues)
        for level, parts in [(sum(combo, ()), map(dict.get, residues, combo))]
    )
    steps = (
        (sum(source, ()), sum(combo, ()), gen_map[(i, gi)],
         mixed_radix([*map(range, n[:i]), column, *map(range, n[i + 1 :])], n))
        for combo in product(*residues)
        for i, y in enumerate(combo)
        for gi, x, column in columns[i][y]
        for source in [combo[:i] + (x,) + combo[i + 1 :]]
        for n in [[*map(len, map(dict.get, residues, source))]]
    )
    return _assemble([vec for vec, _, _ in labelled], sum(s.depth for s in slices), fibers, steps)


# ---------------------------------------------------------------------------
# Virtually-product diagnostic for the rank-2 non-free cone


@dataclass(frozen=True)
class VirtuallyProductReport:
    q_generators: tuple[GroupElement, ...]
    restricted_levels: int
    rooted: CheckReport
    square: ProductOfTreesResult

    @property
    def ok(self) -> bool:
        return self.rooted.ok and self.square.is_product


def virtually_product_subsemigroup(slice_: PGraphSlice) -> VirtuallyProductReport:
    """Restrict the non-free rank-2 slice to even coordinate sums.

    Applicable to slices generated by (1,-1), (1,0), (1,1): the even-sum
    levels form an index-2 subsemigroup freely generated by (1,-1) and
    (1,1), and the restriction should pass the square condition.  Those
    two are the only minimal nonzero even points of the cone x0 >= |x1|,
    and the restriction's generators are whichever of them are levels.

    The slice must pass the rooted check, as a factor of
    external_product must.  Then every vertex over an even level y has
    one g-predecessor, over y - g, for each kept g with y - g a level,
    and no other edge comes in, so the restriction's g-edges into y are
    the stored step column (y, g).  `_assemble` lays out the even
    levels, in the slice's level order, each fiber in residue order.
    """
    expected = ((1, -1), (1, 0), (1, 1))
    if slice_.generators != expected:
        raise NotApplicable(
            f"expects generators {expected}, slice has {slice_.generators}"
        )
    if not (report := slice_.rooted_report).ok:
        raise NotApplicable(f"slice fails the rooted check: {report.failures[0]}")
    even_levels = [x for x in slice_.levels if sum(x) % 2 == 0]
    kept = [gi for gi in (0, 2) if expected[gi] in slice_.level_set]
    q_gens = tuple(expected[gi] for gi in kept)
    fibers = ((x, map(slice_.vertices.__getitem__, slice_.fibers[x])) for x in even_levels)
    steps = (
        (x, y, qi, slice_.step_columns[(y, gi)])
        for y in even_levels
        for qi, gi in enumerate(kept)
        if (x := vsub(y, expected[gi])) in slice_.level_set
    )
    restricted = _assemble(q_gens, slice_.depth, fibers, steps)
    return VirtuallyProductReport(
        q_generators=q_gens,
        restricted_levels=len(even_levels),
        rooted=restricted.rooted_report,
        square=check_product_of_trees(restricted),
    )


# ---------------------------------------------------------------------------
# Export and import


def slice_to_json_dict(slice_: PGraphSlice) -> dict:
    """The canonical JSON shape; arrays follow the slice's own order."""
    return {
        "levels": [
            {"x": list(x), "size": len(slice_.fiber_indices[x])} for x in slice_.levels
        ],
        "vertices": [
            {"level": list(v.level), "residues": list(v.residues)}
            for v in slice_.vertices
        ],
        "edges": [{"from": u, "to": w, "gen": g} for u, w, g in slice_.edges],
    }


JSON_CHUNK = 2048  # records formatted by one % in slice_to_json_chunks


@cache
def _json_value(n: int | None) -> str:
    """json.dumps(..., indent=2) text of one field value of an array
    element of a slice export, with a %d slot per integer: an array of n
    integers, or a single integer when n is None."""
    if n is None:
        return "%d"
    return "[\n" + ",\n".join(["        %d"] * n) + "\n      ]" if n else "[]"


@cache
def _json_template(keys: tuple[str, ...], *lengths: int | None) -> str:
    """The text of one array element whose key i holds _json_value(lengths[i])."""
    fields = ",\n".join(f'      "{key}": {_json_value(n)}' for key, n in zip(keys, lengths))
    return "    {\n" + fields + "\n    }"


def slice_to_json_chunks(slice_: PGraphSlice) -> Iterator[str]:
    """The export text, json.dumps(slice_to_json_dict(slice_), indent=2)
    + "\n", in pieces of one % each.

    Vertices go by runs of consecutive vertices on one level: a run's
    level text is formatted once and heads each of its records, so each
    % fills only residues, for up to JSON_CHUNK records of one run.
    Residue templates are keyed by list length, so uneven residue lists
    come out the same.  The runs also give the level sizes; a level forms
    several runs when the slice's vertices are not grouped by level.
    Edges go JSON_CHUNK records to a %.
    """
    runs = [
        (x, [*map(attrgetter("residues"), run)])
        for x, run in groupby(slice_.vertices, attrgetter("level"))
    ]
    sizes: Counter = Counter()
    for x, residues in runs:
        sizes[x] += len(residues)
    levels, edge = slice_.levels, _json_template(("from", "to", "gen"), None, None, None)
    yield '{\n  "levels": '
    yield from _json_array([(
        ",\n".join([_json_template(("x", "size"), len(x), None) for x in levels]),
        tuple(chain.from_iterable((*x, sizes[x]) for x in levels)),
    )])
    yield ',\n  "vertices": '
    yield from _json_array(_vertex_chunks(runs))
    yield ',\n  "edges": '
    yield from _json_array(
        (",\n".join([edge] * len(part)), tuple(chain.from_iterable(part)))
        for part in _chunks(slice_.edges)
    )
    yield "\n}\n"


def _chunks(records: list | tuple) -> Iterator:
    """Consecutive slices of up to JSON_CHUNK records."""
    return (records[i : i + JSON_CHUNK] for i in range(0, len(records), JSON_CHUNK))


def _vertex_chunks(runs) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(template, residue integers) per chunk of each level run."""
    for x, residues in runs:
        head = ('    {\n      "level": ' + _json_value(len(x)) + ',\n      "residues": ') % x
        for part in _chunks(residues):
            template = head + ("\n    },\n" + head).join(map(_json_value, map(len, part)))
            yield template + "\n    }", tuple(chain.from_iterable(part))


def _json_array(chunks) -> Iterator[str]:
    """A JSON array of records, each chunk one % of its template over its
    integers: '[]' when there is no record."""
    sep = "[\n"
    for template, ints in chunks:
        if template:
            yield sep + template % ints
            sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _json_ints(entry, key: str, where: str) -> tuple[int, ...]:
    """entry[key] as a tuple of ints; ValueError naming where.key otherwise."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(value, list) or not all(type(c) is int for c in value):
        raise ValueError(f"{where}.{key}: integer array required")
    return tuple(value)


def slice_from_json_dict(data: dict) -> PGraphSlice:
    """Rebuild a slice from exported data; generators are recovered from
    the edge labels and level differences.

    Raises ValueError naming the field when the data is malformed,
    including generator steps that lead from a level back to itself.
    """
    raw = {}
    for key in ("levels", "vertices", "edges"):
        raw[key] = data.get(key) if isinstance(data, dict) else None
        if not isinstance(raw[key], list):
            raise ValueError(f"{key}: array required")
    if not raw["levels"]:
        raise ValueError("levels: at least one level required")
    levels = tuple(_json_ints(e, "x", f"levels[{i}]") for i, e in enumerate(raw["levels"]))
    level_index: dict[GroupElement, int] = {}
    for i, x in enumerate(levels):
        if len(x) != len(levels[0]):
            raise ValueError(f"levels[{i}].x: length {len(x)}, want {len(levels[0])}")
        if (j := level_index.setdefault(x, i)) != i:
            raise ValueError(f"levels[{i}].x: duplicates levels[{j}]")
    first = {}
    for i, e in enumerate(raw["vertices"]):
        level = _json_ints(e, "level", f"vertices[{i}]")
        if level not in level_index:
            raise ValueError(f"vertices[{i}].level: {list(level)} is not a listed level")
        v = Vertex(level, _json_ints(e, "residues", f"vertices[{i}]"))
        if (j := first.setdefault(v, i)) != i:
            raise ValueError(f"vertices[{i}]: duplicates vertices[{j}]")
    vertices = tuple(first)
    sizes = Counter(v.level for v in vertices)
    for i, (e, x) in enumerate(zip(raw["levels"], levels)):
        if type(size := e.get("size")) is not int or size != sizes[x]:
            raise ValueError(f"levels[{i}].size: {size!r}, want {sizes[x]}")
    edges = []
    keys = ("from", "to", "gen")
    for i, e in enumerate(raw["edges"]):
        edge = tuple(e.get(key) if isinstance(e, dict) else None for key in keys)
        for key, v in zip(keys, edge):
            if type(v) is not int:
                raise ValueError(f"edges[{i}].{key}: integer required")
            if key != "gen" and not 0 <= v < len(vertices):
                raise ValueError(f"edges[{i}].{key}: vertex index {v} out of range")
        edges.append(edge)
    gen_vec: dict[int, GroupElement] = {}
    for i, (u, w, g) in enumerate(edges):
        vec = vsub(vertices[w].level, vertices[u].level)
        if gen_vec.setdefault(g, vec) != vec:
            raise ValueError(f"edges[{i}].gen: generator {g} has inconsistent level steps")
    if sorted(gen_vec) != list(range(len(gen_vec))):
        raise ValueError(f"edges: generator labels {sorted(gen_vec)} are not 0..n-1")
    gens = tuple(gen_vec[g] for g in range(len(gen_vec)))
    depth = _level_depth(levels, gens)  # names an unreachable level before any cycle
    try:
        return PGraphSlice(gens, depth, levels, vertices, tuple(edges))
    except NotApplicable as exc:
        raise ValueError("edges: generator steps form a cycle among the levels") from exc


def _level_depth(levels: tuple[GroupElement, ...], gens: tuple[GroupElement, ...]) -> int:
    """Largest BFS distance from the zero level over generator steps
    between listed levels; ValueError naming a level it never reaches."""
    level_set = set(levels)
    seen = {tuple([0] * len(levels[0]))} & level_set
    frontier, depth = seen, 0
    while frontier := {vadd(x, g) for x in frontier for g in gens} & level_set - seen:
        seen |= frontier
        depth += 1
    for i, x in enumerate(levels):
        if x not in seen:
            raise ValueError(f"levels[{i}].x: {list(x)} is not reachable from level 0")
    return depth


def slice_to_dot(slice_: PGraphSlice) -> str:
    """Deterministic DOT text; vertex names are L<x>@<residues>.  Each
    run of vertices on one level formats its "L<x>@" head once; one %
    formats every vertex line and one every edge line."""
    edges, names = slice_.edges, []
    for x, run in groupby(slice_.vertices, attrgetter("level")):
        head = "L" + ",".join(map(str, x)) + "@"
        names += [head + ",".join(map(str, v.residues)) for v in run]
    u, w, g = (map(itemgetter(k), edges) for k in range(3))
    fields = chain.from_iterable(zip(map(names.__getitem__, u), map(names.__getitem__, w), g))
    nodes = "".join(['  "%s";\n'] * len(names)) % tuple(names)
    arcs = "".join(['  "%s" -> "%s" [label="%d"];\n'] * len(edges)) % tuple(fields)
    return "digraph pgraph {\n" + nodes + arcs + "}\n"


__all__ = [
    "PGraphSlice",
    "CheckReport",
    "ProductOfTreesResult",
    "VirtuallyProductReport",
    "build_slice",
    "check_rooted_strongly_simple",
    "check_factorization",
    "check_fiber_regularity",
    "check_regularity",
    "check_product_of_trees",
    "predict_product_of_trees",
    "common_descendants",
    "external_product",
    "virtually_product_subsemigroup",
    "descendant_cone",
    "cone_certificate",
    "cones_isomorphic",
    "slice_to_json_chunks",
    "slice_to_json_dict",
    "slice_from_json_dict",
    "slice_to_dot",
    "PRODUCT_OF_TREES",
    "NOT_PRODUCT",
    "NOT_FREE",
]
