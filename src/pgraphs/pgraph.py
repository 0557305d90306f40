"""Depth-truncated slices of the coset graph of a cone semigroup.

A slice materializes, down to a word-length depth D, the graph whose
vertices over level x are the fiber of a coset model and whose edges are
generator-labelled truncation pairs.  All structural checks (rooted,
strongly simple, factorization, fiber counts, regularity to a depth,
product-of-trees) work purely on the stored edge data, so they detect
corrupted slices rather than silently reconstructing them.

The checks read the edges through the slice's step columns: per level
and generator, the position of each vertex's predecessor in the fiber
below, fibers taken in residue order.  The rooted check runs on them and
on the position-list ancestor maps they compose into.  Factorization is
proved from a passing rooted check and enumerated otherwise.
Regularity is decided by one positional isomorphism between cones when
the rooted check passes, and by the cone matcher otherwise or where that
map fails.  Failing slices take per-vertex paths that name every failure.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from graphlib import CycleError, TopologicalSorter
from itertools import chain, combinations, islice, product, repeat
from operator import attrgetter, itemgetter, le
from typing import Iterator

from ._intlinalg import rational_rank, vadd, vsub
from .cone_semigroup import ConeSemigroup, GeneratorSet
from .coset_model import CosetModel, Vertex, fiber, mixed_radix, pair_vertex, truncation_positions
from .errors import LevelNotComparable, NotApplicable
from .flat_core import GroupElement, rho

Edge = tuple[int, int, int]  # (from vertex index, to vertex index, generator index)


@dataclass(frozen=True)
class PGraphSlice:
    """Immutable slice: levels, fibers, and generator-labelled edges.

    Vertices are globally indexed in canonical order (level, then
    residues, both lexicographic); edges are sorted triples.  The
    semigroup is carried when the slice was built from a model, and is
    None for slices re-imported from exported data.
    """

    generators: tuple[GroupElement, ...]
    depth: int
    levels: tuple[GroupElement, ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    semigroup: ConeSemigroup | None = field(default=None, compare=False)

    @cached_property
    def level_set(self) -> frozenset[GroupElement]:
        return frozenset(self.levels)

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def fiber_indices(self) -> dict[GroupElement, tuple[int, ...]]:
        out: dict[GroupElement, list[int]] = {x: [] for x in self.levels}
        for i, v in enumerate(self.vertices):
            out[v.level].append(i)
        return {x: tuple(ids) for x, ids in out.items()}

    def fiber_at(self, x: GroupElement) -> tuple[int, ...]:
        return self.fiber_indices[x]

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
    def step_columns(self) -> dict[tuple[GroupElement, int], tuple[int, ...] | None]:
        """cols[(y, gi)][i] is the position in fibers[y - g] of the
        g-predecessor of fibers[y][i], for each level y and generator g
        with y - g a level.  Read off the edges; the column is None when
        some vertex over y has no g-edge in, several, or one from off
        level y - g."""
        several = object()
        pred = [[None] * len(self.vertices) for _ in self.generators]  # per generator and vertex
        for u, w, gi in self.edges:
            if 0 <= gi < len(pred):  # an edge off the generators is no step
                row = pred[gi]
                row[w] = u if row[w] is None else several
        level = list(map(attrgetter("level"), self.vertices))
        out: dict[tuple[GroupElement, int], tuple[int, ...] | None] = {}
        for x, steps in self.level_steps.items():
            for gi, y in steps:
                us = list(map(pred[gi].__getitem__, self.fibers[y]))
                if None in us or several in us or not set(map(level.__getitem__, us)) <= {x}:
                    out[(y, gi)] = None
                else:
                    out[(y, gi)] = tuple(map(self.position.__getitem__, us))
        return out

    @cached_property
    def succ(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        out: list[dict[int, list[int]]] = [{} for _ in self.vertices]
        for u, w, g in self.edges:
            out[u].setdefault(g, []).append(w)
        return tuple({g: tuple(ws) for g, ws in d.items()} for d in out)

    @cached_property
    def pred(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        out: list[dict[int, list[int]]] = [{} for _ in self.vertices]
        for u, w, g in self.edges:
            out[w].setdefault(g, []).append(u)
        return tuple({g: tuple(us) for g, us in d.items()} for d in out)

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
        """Levels ordered so that x + g comes before x for every step g."""
        after = {x: [y for _, y in steps] for x, steps in self.level_steps.items()}
        try:
            return tuple(TopologicalSorter(after).static_order())
        except CycleError as exc:
            raise NotApplicable("level graph has a cycle") from exc

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
        """All generator words leading from level x to level y in the slice."""
        if y not in self.reachable.get(x, frozenset()):
            return []
        if x == y:
            return [()]
        words = []
        for gi, nxt in self.level_steps[x]:
            if y in self.reachable[nxt]:
                words.extend((gi,) + w for w in self.gen_words(nxt, y))
        return words

    def step_back(self, w: int, g: int) -> int | None:
        """The unique g-predecessor of vertex w, or None if not unique."""
        us = self.pred[w].get(g, ())
        return us[0] if len(us) == 1 else None

    def walk_back(self, w: int, word: tuple[int, ...]) -> int | None:
        """Ancestor of w obtained by undoing the word's steps in reverse."""
        cur: int | None = w
        for g in reversed(word):
            if cur is None:
                return None
            cur = self.step_back(cur, g)
        return cur

    @cached_property
    def ancestor_table(self) -> dict[tuple[GroupElement, GroupElement], dict[int, int]]:
        """amap[(x, y)] maps each w in fiber(y) to its ancestor at level x.

        The ancestor is the one `walk_back` finds along the first word of
        `gen_words(x, y)`; w is missing where a step back is not unique.
        That word starts with the smallest generator g whose target
        x + g still reaches y, and continues with the first word from
        x + g, so amap[(x, y)] is amap[(x + g, y)] followed by one step
        back along g.  Levels are visited top-down, so that map exists.
        """
        table: dict[tuple[GroupElement, GroupElement], dict[int, int]] = {}
        for x in self._levels_top_down:
            for y in self.reachable[x]:
                if y == x:
                    table[(x, x)] = {w: w for w in self.fiber_at(x)}
                    continue
                gi, nxt = next(
                    (gi, nxt) for gi, nxt in self.level_steps[x] if y in self.reachable[nxt]
                )
                amap = {}
                for w, u in table[(nxt, y)].items():
                    v = self.step_back(u, gi)
                    if v is not None:
                        amap[w] = v
                table[(x, y)] = amap
        return table

    def ancestor(self, w: int, x: GroupElement) -> int | None:
        """Ancestor of vertex w at level x along the first generator word."""
        amap = self.ancestor_table.get((x, self.vertices[w].level))
        return None if amap is None else amap.get(w)

    @cached_property
    def ancestor_positions(self) -> dict[tuple[GroupElement, GroupElement], list[int]]:
        """`ancestor_table` on positions: amap[(x, y)][i] is the position
        in fibers[x] of the ancestor of fibers[y][i].

        Built as `ancestor_table` is, one step column composed with
        amap[(x + g, y)], so it needs every step column: only a slice
        that passes part (b) of the rooted check has this table.
        """
        cols = self.step_columns
        table: dict[tuple[GroupElement, GroupElement], list[int]] = {}
        for x in self._levels_top_down:
            for y in self.reachable[x]:
                if y == x:
                    table[(x, x)] = list(range(len(self.fibers[x])))
                    continue
                gi, nxt = next(
                    (gi, nxt) for gi, nxt in self.level_steps[x] if y in self.reachable[nxt]
                )
                table[(x, y)] = list(map(cols[(nxt, gi)].__getitem__, table[(nxt, y)]))
        return table

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
    edges for step g from x are one level-pair map: the i-th vertex over
    x + g goes to position truncation_positions(x, x + g)[i] over x.
    """
    if model.flat_spec() != P.spec:
        raise NotApplicable("model does not derive the cone's flat-group spec")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(generators, GeneratorSet):
        gens = tuple(generators.sigma)
    else:
        gens = tuple(sorted({tuple(g) for g in generators}))
    zero = tuple([0] * P.spec.rank)
    levels = {zero}
    frontier = {zero}
    for _ in range(depth):
        frontier = {vadd(x, g) for x in frontier for g in gens} - levels
        levels |= frontier
    changed = True
    while changed:  # downward closure
        changed = False
        for x in list(levels):
            for g in gens:
                y = vsub(x, g)
                if y not in levels and P.contains(y):
                    levels.add(y)
                    changed = True

    level_list = sorted(levels)
    # sorted levels, each fiber in lexicographic residue order: canonical
    vertices: list[Vertex] = []
    start: dict[GroupElement, int] = {}
    for x in level_list:
        start[x] = len(vertices)
        vertices.extend(fiber(model, P, x))

    edges: list[Edge] = []
    for x in level_list:
        for gi, g in enumerate(gens):
            y = vadd(x, g)
            if y not in levels:
                continue
            positions = truncation_positions(model, x, y)
            targets = range(start[y], start[y] + len(positions))
            edges.extend(zip(map(start[x].__add__, positions), targets, repeat(gi)))
    edges.sort()

    return PGraphSlice(
        generators=gens,
        depth=depth,
        levels=tuple(level_list),
        vertices=tuple(vertices),
        edges=tuple(edges),
        semigroup=P,
    )


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

    Parts (a) and (b) are first decided wholesale.  Part (b) holds
    exactly when every edge steps by its generator and every step
    column exists.  Given (b), part (a) holds exactly when every level
    holding a vertex is reachable from level 0 by generator steps: along
    such a path each vertex has a predecessor one step down, back to the
    root, and every edge steps up a generator.  Only when either fails do
    per-vertex loops name the failures.

    Part (c) runs on `ancestor_positions` rather than walking every word.
    A word from x to y is a step g from x followed by a word from x + g
    to y.  So when all words from each such x + g agree, the words from
    x agree exactly when composing g's step column with amap[(x + g, y)]
    gives amap[(x, y)] for every g.  A pair that fails this test is
    marked, and so is every pair (x', y) with a step from x' into a
    marked pair.  Only marked pairs walk their words to name the
    disagreeing ones, so the failures, and their order, are those of
    walking the words of every pair.
    """
    return slice_.rooted_report


def _rooted_strongly_simple(slice_: PGraphSlice) -> CheckReport:
    """The rooted check's report; see check_rooted_strongly_simple."""
    failures: list[str] = []
    witnesses: list = []

    try:
        root = slice_.root_index
    except NotApplicable as exc:
        return CheckReport("rooted_strongly_simple", False, (str(exc),))

    gens, vertices, edges = slice_.generators, slice_.vertices, slice_.edges
    level = list(map(attrgetter("level"), vertices)).__getitem__
    sources, targets, labels = (map(itemgetter(k), edges) for k in range(3))
    steps = set(zip(map(level, sources), map(level, targets), labels))
    bad = {(x, y, gi) for x, y, gi in steps if not 0 <= gi < len(gens) or vsub(y, x) != gens[gi]}
    for u, w, gi in edges if bad else ():
        if (x := vertices[u].level, y := vertices[w].level, gi) in bad:
            step = f"steps by {vsub(y, x)}, not by generator {gi}"
            failures.append(f"edge {vertices[u]} -> {vertices[w]} {step}")
            witnesses.append(("step", u, w, gi))

    reach = {vertices[root].level}
    stack = list(reach)
    while stack:
        for _, y in slice_.level_steps[stack.pop()]:
            if y not in reach:
                reach.add(y)
                stack.append(y)
    if (
        bad
        or None in slice_.step_columns.values()
        or any(ids for x, ids in slice_.fiber_indices.items() if x not in reach)
    ):
        failures_ab, witnesses_ab = _rooted_failures(slice_, root)
        failures += failures_ab
        witnesses += witnesses_ab
    if failures:
        return CheckReport(
            "rooted_strongly_simple", False, tuple(failures), tuple(witnesses)
        )

    table, cols = slice_.ancestor_positions, slice_.step_columns
    marked: set[tuple[GroupElement, GroupElement]] = set()
    for x in slice_._levels_top_down:
        for y in slice_.reachable[x]:
            ups = [(gi, nxt) for gi, nxt in slice_.level_steps[x] if y in slice_.reachable[nxt]]
            # the first step built table[(x, y)]; the others must agree with it
            if any((nxt, y) in marked for _, nxt in ups) or any(
                list(map(cols[(nxt, gi)].__getitem__, table[(nxt, y)])) != table[(x, y)]
                for gi, nxt in ups[1:]
            ):
                marked.add((x, y))

    for x in slice_.levels:
        for y in slice_.reachable[x]:
            if (x, y) not in marked:
                continue
            words = slice_.gen_words(x, y)
            ref = {w: slice_.walk_back(w, words[0]) for w in slice_.fiber_at(y)}
            for word in words[1:]:
                for w in slice_.fiber_at(y):
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


def _passes_rooted(slice_: PGraphSlice) -> bool:
    """Whether the slice passes the rooted check; False on a level cycle."""
    try:
        return check_rooted_strongly_simple(slice_).ok
    except NotApplicable:
        return False


def _rooted_failures(slice_: PGraphSlice, root: int) -> tuple[list[str], list]:
    """Per-vertex failures and witnesses: the in-degrees of part (b),
    then reachability from the root, part (a)."""
    failures: list[str] = []
    witnesses: list = []
    for w, v in enumerate(slice_.vertices):
        for gi, g in enumerate(slice_.generators):
            below = vsub(v.level, g)
            expected = 1 if below in slice_.level_set else 0
            got = len(slice_.pred[w].get(gi, ()))
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
    for w in range(len(slice_.vertices)):
        if w not in seen:
            failures.append(f"vertex {slice_.vertices[w]} unreachable from root")
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
    if check_rooted_strongly_simple(slice_).ok:
        return CheckReport("factorization", True)
    return _factorization_by_enumeration(slice_)


def _factorization_by_enumeration(slice_: PGraphSlice) -> CheckReport:
    """check_factorization by counting every split.

    All three ancestors are lookups in the ancestor table, whose map for
    (x, z) covers only fiber(z), so an ancestor of w that left fiber(z)
    on a corrupted slice counts 0.
    """
    failures: list[str] = []
    witnesses: list = []
    table = slice_.ancestor_table
    for x in slice_.levels:
        for y in slice_.reachable[x]:
            to_x = table[(x, y)]
            for z in slice_.reachable[x]:
                if y not in slice_.reachable[z]:
                    continue
                to_z, z_to_x = table[(z, y)], table[(x, z)]
                for w in slice_.fiber_at(y):
                    v = to_x.get(w)
                    if v is None:
                        failures.append(
                            f"no ancestor of {slice_.vertices[w]} at level {x}"
                        )
                        witnesses.append(("no_ancestor", w, x))
                        continue
                    count = 1 if z_to_x.get(to_z.get(w)) == v else 0
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
    for x in slice_.levels:
        if x not in reach:
            continue
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


def _cone_deltas(generators, depth: int) -> set:
    deltas = {tuple([0] * len(generators[0]))} if generators else set()
    frontier = set(deltas)
    for _ in range(depth):
        frontier = {vadd(d, g) for d in frontier for g in generators}
        deltas |= frontier
    return deltas


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
    An ordered pair of nodes carries one edge: where a corrupted slice
    joins it along several generators, the last in successor order wins.
    """
    parent = {v: v}
    frontier = [v]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for ws in slice_.succ[u].values():
                for w in ws:
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
        frontier = nxt
    label = {
        (u, w): g for u in parent for g, ws in slice_.succ[u].items() for w in ws if w in parent
    }
    base = slice_.vertices[v].level
    return DescendantCone(
        order=tuple(parent),
        tree_edge={w: (u, label[(u, w)]) for w, u in parent.items() if w != v},
        offset={u: vsub(slice_.vertices[u].level, base) for u in parent},
        edges=frozenset((u, w, g) for (u, w), g in label.items()),
    )


def cone_certificate(slice_: PGraphSlice, v: int, depth: int) -> str:
    """Deterministic isomorphism-invariant digest of a descendant cone's
    stable colours; equal for isomorphic cones."""
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
    isomorphism between every two cones; if it holds for all of them,
    the check passes.  Otherwise, and on any other slice, the matcher
    (`_regularity_by_matcher`) decides.
    """
    if depth_d < 0:
        raise ValueError("depth_d must be >= 0")
    deltas = _cone_deltas(slice_.generators, depth_d)
    levels = [x for x in slice_.levels if all(vadd(x, d) in slice_.level_set for d in deltas)]
    count = sum(len(slice_.fiber_at(x)) for x in levels)
    if count and _cones_agree_by_position(slice_, deltas, levels):
        details = (f"compared {count} cones at depth {depth_d}",)
        return CheckReport("regularity", True, details=details)
    return _regularity_by_matcher(slice_, depth_d)


def _cones_agree_by_position(slice_: PGraphSlice, deltas: set, levels: list) -> bool:
    """Whether the slice passes the rooted check, has distinct generators,
    and gives every cone rooted over `levels` the same signature.

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
    cone.  Distinct generators join distinct pairs of nodes, so
    `descendant_cone`, which keeps one edge per pair, keeps them all.

    The signature lists the cone's node count at each offset delta in D,
    and, for each delta and g with delta - g in D, the rank of each
    node's g-predecessor among the cone's nodes at delta - g, nodes at an
    offset taken in residue order.  Two cones with one signature are
    isomorphic: send the i-th node at each offset of one to the i-th
    node at that offset of the other.  That map keeps offsets, is a
    bijection by the counts, and sends each edge pred_g(w) -> w to the
    edge into the image of w along g by the ranks.  Both cones have
    equally many edges, so it maps edges onto edges.  With all
    signatures equal, every cone is in one isomorphism class, which is
    the matcher's pass.
    """
    gens = slice_.generators
    if len(set(gens)) < len(gens) or not _passes_rooted(slice_):
        return False
    table, cols, fibers = slice_.ancestor_positions, slice_.step_columns, slice_.fibers
    offsets = sorted(deltas)
    steps = [(d, gi, e) for d in offsets
             for gi, g in enumerate(gens) if (e := vsub(d, g)) in deltas]
    first = None
    for x in levels:
        nodes, rank = {}, {}  # per offset: each cone's nodes; each node's rank in its cone
        for d in offsets:
            nodes[d] = groups = [[] for _ in fibers[x]]
            rank[d] = ranks = []
            for i, a in enumerate(table[(x, vadd(x, d))]):
                ranks.append(len(groups[a]))
                groups[a].append(i)
        pred_rank = {(d, gi): list(map(rank[e].__getitem__, cols[(vadd(x, d), gi)]))
                     for d, gi, e in steps}
        for p in range(len(fibers[x])):
            signature = (
                [len(nodes[d][p]) for d in offsets],
                [list(map(pred_rank[(d, gi)].__getitem__, nodes[d][p])) for d, gi, _ in steps],
            )
            if first is None:
                first = signature
            elif signature != first:
                return False
    return True


def _regularity_by_matcher(slice_: PGraphSlice, depth_d: int) -> CheckReport:
    """check_regularity by sorting every cone into isomorphism classes.

    Each cone is compared by `cones_isomorphic`, which is complete and
    sound, with the first cone of each class.  The vertices outside the
    largest class fail, so a corruption inside one cone blames that
    cone's root rather than every other vertex.  On a tie the class
    found first counts as the largest; it holds the first eligible
    vertex whenever that vertex's class is among the largest.
    """
    deltas = _cone_deltas(slice_.generators, depth_d)
    eligible = [
        i
        for i, v in enumerate(slice_.vertices)
        if all(vadd(v.level, d) in slice_.level_set for d in deltas)
    ]
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
    """Number of fiber(z) vertices truncating to alpha and beta."""
    z = tuple(z)
    if z not in slice_.level_set:
        raise LevelNotComparable(f"level {z} is not in the slice")
    ai = slice_.vertex_index.get(alpha)
    bi = slice_.vertex_index.get(beta)
    if ai is None or bi is None:
        raise LevelNotComparable("vertex not in slice")
    for lvl in (alpha.level, beta.level):
        if z not in slice_.reachable.get(lvl, frozenset()):
            raise LevelNotComparable(f"level {lvl} is not below {z}")
    to_a = slice_.ancestor_table[(alpha.level, z)]
    to_b = slice_.ancestor_table[(beta.level, z)]
    return sum(1 for w in slice_.fiber_at(z) if to_a.get(w) == ai and to_b.get(w) == bi)


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

    On a slice that passes the rooted check the test reads step columns.
    Each w over x + g + h has a = pred_h(w) over x + g and b = pred_g(w)
    over x + h, and by part (c) both have the parent anc(w, x): (a, b)
    is a pair of siblings.  So every sibling pair has exactly one common
    child exactly when the w's pairs are distinct and as many as the
    sibling pairs.  Where that fails, the witness is named in successor
    order, which on sorted edges is vertex order; a slice with unsorted
    edges, or one that fails the rooted check, runs the test on its
    edges.
    """
    gens = slice_.generators
    if gens and rational_rank(gens) < len(gens):
        return ProductOfTreesResult(NOT_FREE)
    if not _passes_rooted(slice_):
        return _product_of_trees_by_edges(slice_)
    cols, fibers = slice_.step_columns, slice_.fibers
    for x in slice_.levels:
        for gi, gj in combinations(range(len(gens)), 2):
            xg, xh = vadd(x, gens[gi]), vadd(x, gens[gj])
            xgh = vadd(xg, gens[gj])
            if not {xg, xh, xgh} <= slice_.level_set:
                continue
            counts = Counter(zip(cols[(xgh, gj)], cols[(xgh, gi)]))
            parents = [cols[(xg, gi)], cols[(xh, gj)]]
            sizes_h = Counter(parents[1])
            siblings = sum(n * sizes_h[p] for p, n in Counter(parents[0]).items())
            if len(counts) == len(fibers[xgh]) == siblings:
                continue
            edges = slice_.edges
            if not all(map(le, edges, islice(edges, 1, None))):
                return _product_of_trees_by_edges(slice_)
            kids = []  # per parent position: (child, its position) along gi, then gj
            for up, column in zip((xg, xh), parents):
                kids.append([[] for _ in fibers[x]])
                for q, p in enumerate(column):
                    kids[-1][p].append((fibers[up][q], q))
            for v in slice_.fiber_at(x):
                p = slice_.position[v]
                for a, qa in sorted(kids[0][p]):
                    for b, qb in sorted(kids[1][p]):
                        if (c := counts[(qa, qb)]) != 1:
                            return ProductOfTreesResult(NOT_PRODUCT, (x, gi, gj, a, b, c))
    return ProductOfTreesResult(PRODUCT_OF_TREES)


def _product_of_trees_by_edges(slice_: PGraphSlice) -> ProductOfTreesResult:
    """The square condition of a free generator set, read off `pred` and
    `succ`; see check_product_of_trees."""
    gens = slice_.generators
    for x in slice_.levels:
        for gi, gj in combinations(range(len(gens)), 2):
            xg, xh = vadd(x, gens[gi]), vadd(x, gens[gj])
            xgh = vadd(xg, gens[gj])
            if not (
                xg in slice_.level_set
                and xh in slice_.level_set
                and xgh in slice_.level_set
            ):
                continue
            counts: dict[tuple[int, int], int] = {}
            for w in slice_.fiber_at(xgh):
                a = slice_.step_back(w, gj)  # undo gj: ancestor in fiber(xg)
                b = slice_.step_back(w, gi)  # undo gi: ancestor in fiber(xh)
                if a is None or b is None:
                    return ProductOfTreesResult(NOT_PRODUCT, ("missing_pred", w))
                counts[(a, b)] = counts.get((a, b), 0) + 1
            for v in slice_.fiber_at(x):
                for a in slice_.succ[v].get(gi, ()):
                    for b in slice_.succ[v].get(gj, ()):
                        c = counts.get((a, b), 0)
                        if c != 1:
                            return ProductOfTreesResult(
                                NOT_PRODUCT, (x, gi, gj, a, b, c)
                            )
    return ProductOfTreesResult(PRODUCT_OF_TREES)


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
    return all(
        not (supports[i] & supports[j]) for i, j in combinations(range(len(gens)), 2)
    )


# ---------------------------------------------------------------------------
# External products


def external_product(slices: list[PGraphSlice] | tuple[PGraphSlice, ...]) -> PGraphSlice:
    """Componentwise product of rooted, strongly simple slices.

    Levels and residues concatenate; an edge moves one factor along one
    of its generators and fixes the rest.  Vertices run over the level
    combinations, lexicographic in each factor's sorted levels, then over
    the factors' fibers sorted by residues, so each combination is one
    block in mixed radix.  That is the (level, residues) order unless a
    factor level repeats a vertex or holds a residue tuple that is a
    proper prefix of another, which no slice from build_slice,
    external_product or an export does.

    A factor passes the rooted check, so each vertex over y has one
    g-predecessor, over y - g, if y - g is a level, and none otherwise.
    Its g-edges into fiber(y) form its step column into y, and the
    product's g-edges into a block expand that column in mixed radix.
    """
    if not slices:
        raise ValueError("need at least one slice")
    for s in slices:
        report = check_rooted_strongly_simple(s)
        if not report.ok:
            raise NotApplicable(f"factor fails rooted/strongly-simple: {report.failures[:1]}")

    ranks = [len(s.levels[0]) for s in slices]
    labelled = sorted(
        ((0,) * sum(ranks[:i]) + g + (0,) * sum(ranks[i + 1 :]), i, gi)
        for i, s in enumerate(slices)
        for gi, g in enumerate(s.generators)
    )
    gen_map = {(i, gi): new for new, (_, i, gi) in enumerate(labelled)}
    residues, steps = [], []  # per factor and level: residues; (gi, level below, column)
    for s in slices:
        fibers = {x: ids for x, ids in sorted(s.fibers.items()) if ids}
        residues.append({x: [s.vertices[v].residues for v in ids] for x, ids in fibers.items()})
        steps.append({y: [(gi, x, s.step_columns[(y, gi)])
                          for gi, g in enumerate(s.generators) if (x := vsub(y, g)) in fibers]
                      for y in fibers})

    block, levels, vertices, edges = {}, [], [], []  # block: a level combination's indices
    for combo in product(*residues):
        levels.append(level := sum(combo, ()))
        concat = map(tuple, map(chain.from_iterable, product(*map(dict.get, residues, combo))))
        first = len(vertices)
        vertices.extend(map(pair_vertex, zip(repeat(level), concat)))
        block[combo] = range(first, len(vertices))
    for combo, target in block.items():
        for i, y in enumerate(combo):
            for gi, x, column in steps[i][y]:
                source = combo[:i] + (x,) + combo[i + 1 :]
                n = list(map(len, map(dict.get, residues, source)))
                radix = [*map(range, n[:i]), column, *map(range, n[i + 1 :])]
                sources = map(block[source].start.__add__, mixed_radix(radix, n))
                edges.extend(zip(sources, target, repeat(gen_map[(i, gi)])))
    edges.sort()
    return PGraphSlice(
        generators=tuple(vec for vec, _, _ in labelled),
        depth=sum(s.depth for s in slices),
        levels=tuple(levels),
        vertices=tuple(vertices),
        edges=tuple(edges),
    )


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
    (1,1), and the restriction should pass the square condition.
    """
    expected = ((1, -1), (1, 0), (1, 1))
    if slice_.generators != expected:
        raise NotApplicable(
            f"expects generators {expected}, slice has {slice_.generators}"
        )
    even_levels = [x for x in slice_.levels if sum(x) % 2 == 0]
    even_set = set(even_levels)

    nonzero = [x for x in even_levels if any(c != 0 for c in x)]
    if slice_.semigroup is not None:
        in_cone = slice_.semigroup.contains
    else:
        in_cone = lambda d: d[0] >= abs(d[1])  # noqa: E731
    q_gens = tuple(
        sorted(
            x
            for x in nonzero
            if not any(w != x and in_cone(vsub(x, w)) for w in nonzero)
        )
    )

    keep_gen = {gi: g for gi, g in enumerate(slice_.generators) if g in q_gens}
    relabel = {gi: q_gens.index(g) for gi, g in keep_gen.items()}
    old_vertices = [
        i for i, v in enumerate(slice_.vertices) if v.level in even_set
    ]
    new_index = {i: n for n, i in enumerate(old_vertices)}
    vertices = tuple(slice_.vertices[i] for i in old_vertices)
    edges = sorted(
        (new_index[u], new_index[w], relabel[g])
        for u, w, g in slice_.edges
        if g in relabel
        and slice_.vertices[u].level in even_set
        and slice_.vertices[w].level in even_set
    )
    restricted = PGraphSlice(
        generators=q_gens,
        depth=slice_.depth,
        levels=tuple(even_levels),
        vertices=vertices,
        edges=tuple(edges),
    )
    return VirtuallyProductReport(
        q_generators=q_gens,
        restricted_levels=len(even_levels),
        rooted=check_rooted_strongly_simple(restricted),
        square=check_product_of_trees(restricted),
    )


# ---------------------------------------------------------------------------
# Export and import


def slice_to_json_dict(slice_: PGraphSlice) -> dict:
    """The canonical JSON shape; arrays follow the slice's own order."""
    return {
        "levels": [
            {"x": list(x), "size": len(slice_.fiber_at(x))} for x in slice_.levels
        ],
        "vertices": [
            {"level": list(v.level), "residues": list(v.residues)}
            for v in slice_.vertices
        ],
        "edges": [{"from": u, "to": w, "gen": g} for u, w, g in slice_.edges],
    }


JSON_CHUNK = 2048  # records formatted by one % in slice_to_json_chunks


@cache
def _json_template(keys: tuple[str, ...], *lengths: int | None) -> str:
    """json.dumps(..., indent=2) text of one array element of a slice
    export, with a %d slot per integer.  Key i holds an array of
    lengths[i] integers, or a single integer when lengths[i] is None."""
    lines = []
    for key, n in zip(keys, lengths):
        if n is None:
            value = "%d"
        elif n == 0:
            value = "[]"
        else:
            value = "[\n" + ",\n".join(["        %d"] * n) + "\n      ]"
        lines.append(f'      "{key}": {value}')
    return "    {\n" + ",\n".join(lines) + "\n    }"


def slice_to_json_chunks(slice_: PGraphSlice) -> Iterator[str]:
    """The export text, json.dumps(slice_to_json_dict(slice_), indent=2)
    + "\n", in pieces: each run of up to JSON_CHUNK records of an array
    is one % over their joined templates.  Templates are keyed by list
    lengths, so uneven residue lists come out the same."""
    vertices, edges = slice_.vertices, slice_.edges
    sizes = Counter(map(attrgetter("level"), vertices))
    arrays = [  # key, one template per record, records, nesting depth of their integers
        ("levels", [_json_template(("x", "size"), len(x), None) for x in slice_.levels],
         [(*x, sizes[x]) for x in slice_.levels], 1),
        ("vertices", list(_by_shape(partial(_json_template, ("level", "residues")), vertices)),
         vertices, 2),
        ("edges", [_json_template(("from", "to", "gen"), None, None, None)] * len(edges),
         edges, 1),
    ]
    for n, (key, templates, records, depth) in enumerate(arrays):
        yield (",\n" if n else "{\n") + f'  "{key}": ' + ("[\n" if records else "[]")
        for i in range(0, len(records), JSON_CHUNK):
            ints = records[i : i + JSON_CHUNK]
            for _ in range(depth):
                ints = chain.from_iterable(ints)
            yield (",\n" if i else "") + ",\n".join(templates[i : i + JSON_CHUNK]) % tuple(ints)
        yield "\n  ]" if records else ""
    yield "\n}\n"


def _by_shape(template, vertices: tuple[Vertex, ...]) -> Iterator[str]:
    """template(len(v.level), len(v.residues)) for each vertex v."""
    levels, residues = map(attrgetter("level"), vertices), map(attrgetter("residues"), vertices)
    return map(template, map(len, levels), map(len, residues))


def slice_to_json(slice_: PGraphSlice) -> str:
    """The export text: exactly json.dumps(slice_to_json_dict(slice_),
    indent=2) + "\n", with no per-record dict built."""
    return "".join(slice_to_json_chunks(slice_))


def _json_ints(entry, key: str, where: str) -> tuple[int, ...]:
    """entry[key] as a tuple of ints; ValueError naming where.key otherwise."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(value, list) or not all(type(c) is int for c in value):
        raise ValueError(f"{where}.{key}: integer array required")
    return tuple(value)


def slice_from_json_dict(data: dict) -> PGraphSlice:
    """Rebuild a slice from exported data; generators are recovered from
    the edge labels and level differences.

    Raises ValueError naming the field when the data is malformed.
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
    return PGraphSlice(
        generators=gens,
        depth=_level_depth(levels, gens),
        levels=levels,
        vertices=vertices,
        edges=tuple(edges),
    )


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


@cache
def _dot_name_template(levels: int, residues: int) -> str:
    return "L" + ",".join(["%d"] * levels) + "@" + ",".join(["%d"] * residues)


def slice_to_dot(slice_: PGraphSlice) -> str:
    """Deterministic DOT text; vertex names are L<x>@<residues>.  One %
    formats every name, one every vertex line and one every edge line."""
    vertices, edges = slice_.vertices, slice_.edges
    ints = tuple(chain.from_iterable(chain.from_iterable(vertices)))
    names = ("\n".join(_by_shape(_dot_name_template, vertices)) % ints).splitlines()
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
    "slice_to_json",
    "slice_to_json_chunks",
    "slice_to_json_dict",
    "slice_from_json_dict",
    "slice_to_dot",
    "PRODUCT_OF_TREES",
    "NOT_PRODUCT",
    "NOT_FREE",
]
