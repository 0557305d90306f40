"""Depth-truncated slices of the coset graph of a cone semigroup.

A slice materializes, down to a word-length depth D, the graph whose
vertices over level x are the fiber of a coset model and whose edges are
generator-labelled truncation pairs.  All structural checks (rooted,
strongly simple, factorization, fiber counts, regularity to a depth,
product-of-trees) work purely on the stored edge data, so they detect
corrupted slices rather than silently reconstructing them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, product

import networkx as nx

from ._intlinalg import rational_rank, vadd, vsub
from .cone_semigroup import ConeSemigroup, GeneratorSet
from .coset_model import CosetModel, Vertex, fiber, truncate
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


@dataclass(frozen=True)
class MorphismWitness:
    """A (source, target) pair with its degree; faithful by strong simplicity."""

    source: Vertex
    target: Vertex
    degree: GroupElement


def morphism(slice_: PGraphSlice, source: Vertex, target: Vertex) -> MorphismWitness | None:
    """The unique morphism source -> target, or None if there is none."""
    si = slice_.vertex_index.get(source)
    ti = slice_.vertex_index.get(target)
    if si is None or ti is None:
        return None
    if slice_.ancestor(ti, source.level) != si:
        return None
    return MorphismWitness(source, target, vsub(target.level, source.level))


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
    fibers and edges follow the model's enumeration and truncation.
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
    fibers = {x: fiber(model, P, x) for x in level_list}
    vertices: list[Vertex] = []
    for x in level_list:
        vertices.extend(fibers[x])
    vertices.sort(key=lambda v: (v.level, v.residues))
    index = {v: i for i, v in enumerate(vertices)}

    edges: list[Edge] = []
    for x in level_list:
        for gi, g in enumerate(gens):
            y = vadd(x, g)
            if y not in levels:
                continue
            for w in fibers[y]:
                v = truncate(model, x, y, w)
                edges.append((index[v], index[w], gi))
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
    exactly one sigma-predecessor wherever the level below exists, and
    (c) for every comparable level pair, all generator words induce the
    same ancestor map on the upper fiber.

    Part (c) reads the ancestor table rather than walking every word.
    A word from x to y is a step g from x followed by a word from x + g
    to y.  So when all words from each such x + g agree, the words from
    x agree exactly when stepping back along g from amap[(x + g, y)]
    gives amap[(x, y)] for every g.  A pair that fails this test is
    marked, and so is every pair (x', y) with a step from x' into a
    marked pair.  Only marked pairs walk their words to name the
    disagreeing ones, so the failures, and their order, are those of
    walking the words of every pair.
    """
    failures: list[str] = []
    witnesses: list = []

    try:
        root = slice_.root_index
    except NotApplicable as exc:
        return CheckReport("rooted_strongly_simple", False, (str(exc),))

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

    if failures:
        return CheckReport(
            "rooted_strongly_simple", False, tuple(failures), tuple(witnesses)
        )

    table = slice_.ancestor_table
    marked: set[tuple[GroupElement, GroupElement]] = set()
    for x in slice_._levels_top_down:
        for y in slice_.reachable[x]:
            amap = table[(x, y)]
            for gi, nxt in slice_.level_steps[x]:
                if y not in slice_.reachable[nxt]:
                    continue
                up = table[(nxt, y)]
                if (nxt, y) in marked or any(
                    (slice_.step_back(up[w], gi) if w in up else None) != amap.get(w)
                    for w in slice_.fiber_at(y)
                ):
                    marked.add((x, y))
                    break

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


def check_factorization(slice_: PGraphSlice) -> CheckReport:
    """Unique-intermediate property for every split of every morphism.

    For each morphism v -> w of degree y - x and each slice level z with
    x <= z <= y, exactly one u in fiber(z) must satisfy both v -> u and
    u -> w.  Verified exhaustively on the slice.

    A u in fiber(z) with u -> w is w's ancestor at z, so at most one u
    qualifies: the count is 1 when anc(anc(w, z), x) == anc(w, x) and 0
    otherwise.  All three ancestors are lookups in the ancestor table,
    whose map for (x, z) covers only fiber(z), so an ancestor of w that
    left fiber(z) on a corrupted slice counts 0.
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


def _multiset_expressions(slice_: PGraphSlice, x: GroupElement):
    """All generator multisets summing to x, as count tuples."""
    n = len(slice_.generators)
    zero = tuple([0] * len(x))

    def rec(target: GroupElement, start: int):
        if target == zero:
            yield (0,) * n
            return
        for gi in range(start, n):
            rest = vsub(target, slice_.generators[gi])
            if rest in slice_.level_set or rest == zero:
                for counts in rec(rest, gi):
                    yield tuple(
                        c + (1 if i == gi else 0) for i, c in enumerate(counts)
                    )

    seen = set()
    for counts in rec(x, 0):
        if counts not in seen:
            seen.add(counts)
            yield counts


def check_fiber_regularity(slice_: PGraphSlice) -> CheckReport:
    """Fiber sizes must equal the product of generator fiber sizes over
    every expression of the level as a generator multiset."""
    failures: list[str] = []
    witnesses: list = []
    gen_sizes = {}
    for gi, g in enumerate(slice_.generators):
        if g in slice_.level_set:
            gen_sizes[gi] = len(slice_.fiber_at(g))
    for x in slice_.levels:
        size = len(slice_.fiber_at(x))
        for counts in _multiset_expressions(slice_, x):
            expected = 1
            for gi, m in enumerate(counts):
                if m:
                    expected *= gen_sizes.get(gi, 0) ** m
            if expected != size:
                failures.append(
                    f"level {x}: expression {counts} predicts {expected}, fiber has {size}"
                )
                witnesses.append(("fiber_count", x, counts, expected, size))
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


def descendant_cone(slice_: PGraphSlice, v: int, depth: int) -> nx.DiGraph:
    """Induced subgraph on descendants of v within `depth` generator steps.

    Nodes carry the level offset from v; edges carry the generator index.
    """
    base = slice_.vertices[v].level
    dist = {v: 0}
    order = [v]
    for u in order:
        if dist[u] == depth:
            continue
        for ws in slice_.succ[u].values():
            for w in ws:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    order.append(w)
    g = nx.DiGraph()
    for u in order:
        g.add_node(u, offset=vsub(slice_.vertices[u].level, base))
    for u in order:
        for gi, ws in slice_.succ[u].items():
            for w in ws:
                if w in dist:
                    g.add_edge(u, w, gen=gi)
    return g


def _cone_signature(g: nx.DiGraph):
    profile = sorted(
        (
            data["offset"],
            tuple(sorted(d["gen"] for _, _, d in g.out_edges(n, data=True))),
            tuple(sorted(d["gen"] for _, _, d in g.in_edges(n, data=True))),
        )
        for n, data in g.nodes(data=True)
    )
    return (g.number_of_nodes(), g.number_of_edges(), tuple(profile))


def cone_certificate(slice_: PGraphSlice, v: int, depth: int) -> str:
    """Deterministic isomorphism-invariant hash of a descendant cone.

    Colour refinement over (offset, labelled in/out neighbourhoods),
    iterated to stability and digested; equal for isomorphic cones.
    """
    g = descendant_cone(slice_, v, depth)
    colour = {n: repr(data["offset"]) for n, data in g.nodes(data=True)}
    for _ in range(max(g.number_of_nodes(), 1)):
        nxt = {}
        for n in g.nodes:
            outs = sorted((d["gen"], colour[w]) for _, w, d in g.out_edges(n, data=True))
            ins = sorted((d["gen"], colour[u]) for u, _, d in g.in_edges(n, data=True))
            nxt[n] = hashlib.sha256(repr((colour[n], outs, ins)).encode()).hexdigest()
        stable = len(set(nxt.values())) == len(set(colour.values()))
        colour = nxt
        if stable:  # refinement only ever splits classes
            break
    digest = hashlib.sha256(repr(sorted(colour.values())).encode()).hexdigest()
    return digest


def cones_isomorphic(g1: nx.DiGraph, g2: nx.DiGraph) -> bool:
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        g1,
        g2,
        node_match=lambda a, b: a["offset"] == b["offset"],
        edge_match=lambda a, b: a["gen"] == b["gen"],
    )
    return matcher.is_isomorphic()


def check_regularity(slice_: PGraphSlice, depth_d: int) -> CheckReport:
    """Descendant cones truncated to depth_d are pairwise isomorphic.

    Only vertices whose full depth_d cone fits inside the slice take
    part.  Cones are bucketed by certificate and then verified against a
    representative with an exact labelled-graph isomorphism test.
    """
    if depth_d < 0:
        raise ValueError("depth_d must be >= 0")
    deltas = _cone_deltas(slice_.generators, depth_d)
    eligible = [
        i
        for i, v in enumerate(slice_.vertices)
        if all(vadd(v.level, d) in slice_.level_set for d in deltas)
    ]
    if not eligible:
        return CheckReport("regularity", True, details=("no eligible vertices",))
    failures: list[str] = []
    witnesses: list = []
    rep = eligible[0]
    rep_cone = descendant_cone(slice_, rep, depth_d)
    rep_cert = cone_certificate(slice_, rep, depth_d)
    for v in eligible[1:]:
        cert = cone_certificate(slice_, v, depth_d)
        if cert != rep_cert or not cones_isomorphic(
            rep_cone, descendant_cone(slice_, v, depth_d)
        ):
            failures.append(
                f"descendant cone of {slice_.vertices[v]} differs from the root cone"
                f" at depth {depth_d}"
            )
            witnesses.append(("cone", v, depth_d))
    return CheckReport(
        "regularity",
        not failures,
        tuple(failures),
        tuple(witnesses),
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
    """
    gens = slice_.generators
    if gens and rational_rank(gens) < len(gens):
        return ProductOfTreesResult(NOT_FREE)
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
    of its generators and fixes the rest.
    """
    if not slices:
        raise ValueError("need at least one slice")
    for s in slices:
        report = check_rooted_strongly_simple(s)
        if not report.ok:
            raise NotApplicable(f"factor fails rooted/strongly-simple: {report.failures[:1]}")

    ranks = [len(s.levels[0]) for s in slices]
    offsets = [sum(ranks[:i]) for i in range(len(slices))]
    total = sum(ranks)

    def embed(vec: GroupElement, i: int) -> GroupElement:
        out = [0] * total
        for j, c in enumerate(vec):
            out[offsets[i] + j] = c
        return tuple(out)

    labelled = []
    for i, s in enumerate(slices):
        for gi, g in enumerate(s.generators):
            labelled.append((embed(g, i), i, gi))
    labelled.sort(key=lambda t: t[0])
    gen_vecs = tuple(t[0] for t in labelled)
    gen_map = {(i, gi): new for new, (_, i, gi) in enumerate(labelled)}

    combos = list(product(*[range(len(s.vertices)) for s in slices]))
    verts = {}
    for combo in combos:
        vs = [slices[i].vertices[idx] for i, idx in enumerate(combo)]
        level = tuple(c for v in vs for c in v.level)
        residues = tuple(c for v in vs for c in v.residues)
        verts[combo] = Vertex(level, residues)
    vertices = sorted(verts.values(), key=lambda v: (v.level, v.residues))
    index = {v: i for i, v in enumerate(vertices)}
    combo_index = {combo: index[v] for combo, v in verts.items()}

    edges: list[Edge] = []
    for combo in combos:
        for i, s in enumerate(slices):
            for gi, ws in s.succ[combo[i]].items():
                for w in ws:
                    target = combo[:i] + (w,) + combo[i + 1 :]
                    edges.append(
                        (combo_index[combo], combo_index[target], gen_map[(i, gi)])
                    )
    edges.sort()

    levels = sorted({v.level for v in vertices})
    return PGraphSlice(
        generators=gen_vecs,
        depth=sum(s.depth for s in slices),
        levels=tuple(levels),
        vertices=tuple(vertices),
        edges=tuple(edges),
        semigroup=None,
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
        semigroup=None,
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
    for i, x in enumerate(levels):
        if len(x) != len(levels[0]):
            raise ValueError(f"levels[{i}].x: length {len(x)}, want {len(levels[0])}")
    level_set = set(levels)
    vertices = []
    for i, e in enumerate(raw["vertices"]):
        level = _json_ints(e, "level", f"vertices[{i}]")
        if level not in level_set:
            raise ValueError(f"vertices[{i}].level: {list(level)} is not a listed level")
        vertices.append(Vertex(level, _json_ints(e, "residues", f"vertices[{i}]")))
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
        depth=max(_word_norm(x, gens) for x in levels),
        levels=levels,
        vertices=tuple(vertices),
        edges=tuple(edges),
        semigroup=None,
    )


def _word_norm(x: GroupElement, gens: tuple[GroupElement, ...]) -> int:
    """Shortest generator word length reaching x from 0, or 0 if none."""
    if all(c == 0 for c in x):
        return 0
    frontier = {tuple([0] * len(x))}
    seen = set(frontier)
    for steps in range(1, 64):
        frontier = {vadd(y, g) for y in frontier for g in gens} - seen
        if x in frontier:
            return steps
        if not frontier:
            return 0
        seen |= frontier
    return 0


def slice_to_dot(slice_: PGraphSlice) -> str:
    """Deterministic DOT text; vertex names are L<x>@<residues>."""

    def name(v: Vertex) -> str:
        x = ",".join(map(str, v.level))
        r = ",".join(map(str, v.residues))
        return f"L{x}@{r}"

    lines = ["digraph pgraph {"]
    for v in slice_.vertices:
        lines.append(f'  "{name(v)}";')
    for u, w, g in slice_.edges:
        lines.append(
            f'  "{name(slice_.vertices[u])}" -> "{name(slice_.vertices[w])}" [label="{g}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "PGraphSlice",
    "MorphismWitness",
    "CheckReport",
    "ProductOfTreesResult",
    "VirtuallyProductReport",
    "build_slice",
    "morphism",
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
    "slice_to_json_dict",
    "slice_from_json_dict",
    "slice_to_dot",
    "PRODUCT_OF_TREES",
    "NOT_PRODUCT",
    "NOT_FREE",
]
