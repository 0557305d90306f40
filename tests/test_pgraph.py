import dataclasses
import itertools
import json
import math
import random
import re
import sys
import time
from collections import Counter
from functools import lru_cache

import pytest

from pgraphs import cli
from pgraphs import cone_semigroup as cs
from pgraphs import pgraph as pg
from pgraphs.cli import bundled_config_path, load_config
from pgraphs.coset_model import PadicModel, TreeModel, Vertex, caps, truncate
from pgraphs.errors import CertificationFailed, LevelNotComparable, NotApplicable, SliceTooLarge
from pgraphs.flat_core import scale, uniscalar_kernel

MODELS = {
    "5_1": PadicModel(((2, (1, 0)), (2, (0, 1)))),
    "5_2": PadicModel(((2, (1, 0)), (2, (1, 1)), (2, (0, 1)))),
    "5_3": PadicModel(((2, (1, 1)), (2, (1, -1)))),
    "coprime": PadicModel(((2, (1, 0)), (3, (0, 1)))),
    "tree3": TreeModel((3,)),
    # relabellings of 5_2 (rows reordered) and 5_3 (coordinates swapped)
    "5_2_rows": PadicModel(((2, (1, 1)), (2, (1, 0)), (2, (0, 1)))),
    "5_3_swap": PadicModel(((2, (1, 1)), (2, (-1, 1)))),
}


@lru_cache(maxsize=None)
def make_slice(model_key, pattern_text, depth):
    model = MODELS[model_key]
    spec = model.flat_spec()
    P = cs.ConeSemigroup(spec, cs.SignPattern.parse(pattern_text))
    gens = cs.minimal_generators(P, 16)
    return pg.build_slice(P, gens, model, depth)


@lru_cache(maxsize=None)
def bundled_slices():
    """(config name, pattern, depth, model, slice) for every bundled model,
    admissible pattern and depth 0-3."""
    out = []
    for name in ("example_5_1", "example_5_2", "example_5_3", "coprime_2_3", "moller_tree"):
        model, _ = load_config(bundled_config_path(name))
        spec = model.flat_spec()
        for pattern in cs.enumerate_admissible(spec):
            P = cs.ConeSemigroup(spec, pattern)
            gens = cs.minimal_generators(P, 16)
            for depth in range(4):
                out.append((name, pattern, depth, model, pg.build_slice(P, gens, model, depth)))
    return tuple(out)


# ---------------------------------------------------------------------------
# construction


def _truncated_edges(s, model):
    """Reference: each edge found by truncating its target vertex, one
    vertex at a time."""
    index = {v: i for i, v in enumerate(s.vertices)}
    edges = []
    for x in s.levels:
        for gi, g in enumerate(s.generators):
            y = tuple(a + b for a, b in zip(x, g))
            if y not in s.level_set:
                continue
            for w in s.fiber_at(y):
                v = truncate(model, x, y, s.vertices[w])
                edges.append((index[v], w, gi))
    return sorted(edges)


def _sorted_product(slices):
    """Reference: the external product built by sorting one Vertex per
    combination of factor vertices by (level, residues)."""
    for s in slices:
        report = pg.check_rooted_strongly_simple(s)
        if not report.ok:
            raise NotApplicable(f"factor fails rooted/strongly-simple: {report.failures[:1]}")

    ranks = [len(s.levels[0]) for s in slices]
    offsets = [sum(ranks[:i]) for i in range(len(slices))]
    total = sum(ranks)

    def embed(vec, i):
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

    combos = list(itertools.product(*[range(len(s.vertices)) for s in slices]))
    verts = {}
    for combo in combos:
        vs = [slices[i].vertices[idx] for i, idx in enumerate(combo)]
        level = tuple(c for v in vs for c in v.level)
        residues = tuple(c for v in vs for c in v.residues)
        verts[combo] = Vertex(level, residues)
    vertices = sorted(verts.values(), key=lambda v: (v.level, v.residues))
    index = {v: i for i, v in enumerate(vertices)}
    combo_index = {combo: index[v] for combo, v in verts.items()}

    edges = []
    for combo in combos:
        for i, s in enumerate(slices):
            for gi, ws in s.succ[combo[i]].items():
                for w in ws:
                    target = combo[:i] + (w,) + combo[i + 1 :]
                    edges.append((combo_index[combo], combo_index[target], gen_map[(i, gi)]))
    edges.sort()

    levels = sorted({v.level for v in vertices})
    return pg.PGraphSlice(
        generators=gen_vecs,
        depth=sum(s.depth for s in slices),
        levels=tuple(levels),
        vertices=tuple(vertices),
        edges=tuple(edges),
    )


def _record_json_template(fields):
    """Reference: json.dumps(..., indent=2) text of one array element,
    with a %d slot per integer; each field is (key, n), an array of n
    integers or a single integer when n is None."""
    lines = []
    for key, n in fields:
        if n is None:
            value = "%d"
        elif n == 0:
            value = "[]"
        else:
            value = "[\n" + ",\n".join(["        %d"] * n) + "\n      ]"
        lines.append(f'      "{key}": {value}')
    return "    {\n" + ",\n".join(lines) + "\n    }"


def _record_json(s):
    """Reference: the export text formatted one record at a time."""

    def array(key, items):
        body = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
        return f'  "{key}": {body}'

    levels = [
        _record_json_template((("x", len(x)), ("size", None))) % (*x, len(s.fiber_at(x)))
        for x in s.levels
    ]
    vertices = [
        _record_json_template((("level", len(v.level)), ("residues", len(v.residues))))
        % (*v.level, *v.residues)
        for v in s.vertices
    ]
    edge = _record_json_template((("from", None), ("to", None), ("gen", None)))
    arrays = [
        array("levels", levels),
        array("vertices", vertices),
        array("edges", [edge % e for e in s.edges]),
    ]
    return "{\n" + ",\n".join(arrays) + "\n}\n"


def _record_dot(s):
    """Reference: the DOT text formatted one vertex and one edge at a time."""

    def name(v):
        return f"L{','.join(map(str, v.level))}@{','.join(map(str, v.residues))}"

    names = [name(v) for v in s.vertices]
    lines = ["digraph pgraph {"]
    lines.extend(f'  "{n}";' for n in names)
    lines.extend(f'  "{names[u]}" -> "{names[w]}" [label="{g}"];' for u, w, g in s.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _assert_writers_match_records(s):
    text = pg.slice_to_json(s)
    assert text == _record_json(s)
    assert "".join(pg.slice_to_json_chunks(s)) == text
    assert pg.slice_to_dot(s) == _record_dot(s)


def test_build_slice_edges_match_per_vertex_truncation():
    for name, pattern, depth, model, s in bundled_slices():
        assert list(s.edges) == _truncated_edges(s, model), (name, str(pattern), depth)
    assert sum(len(s.edges) for *_, s in bundled_slices()) > 3000


def random_padic_slices(seed, count, max_vertices=1500):
    """(model, slice) pairs off seeded random p-adic models: rank 2 or 3,
    2 to 4 rows of exponents in -2..2 over primes 2, 3 and 5 mixed, one
    admissible pattern each, depth 1 to 4.  Draws whose sums of at most
    depth generators hold more than max_vertices are redrawn before the
    build, to keep the per-vertex references quick; the downward closure
    adds only levels whose fibers are smaller than one of those."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.choice((2, 3))
        rows = [
            (rng.choice((2, 3, 5)), tuple(rng.randint(-2, 2) for _ in range(rank)))
            for _ in range(rng.randint(rank, rank + 1))
        ]
        if not all(any(e) for _, e in rows):
            continue
        model = PadicModel(tuple(rows))
        spec = model.flat_spec()
        if uniscalar_kernel(spec):
            continue
        P = cs.ConeSemigroup(spec, rng.choice(cs.enumerate_admissible(spec)))
        try:
            gens = cs.minimal_generators(P, 16)
        except CertificationFailed:
            continue
        depth, sums = rng.randint(1, 4), {(0,) * rank}
        for _ in range(depth):
            sums |= {tuple(map(sum, zip(x, g))) for x in sums for g in gens.sigma}
        if sum(math.prod(caps(model, x)) for x in sums) <= max_vertices:
            out.append((model, pg.build_slice(P, gens, model, depth)))
    return out


def test_edge_order_off_the_bundled_models():
    # edges are sorted by their source alone; the block order must make
    # that the sorted triples on mixed primes, rank 3 and two valencies
    slices = random_padic_slices(15, 24)
    assert {len(s.levels[0]) for _, s in slices} == {2, 3}
    assert any(len({p for p, _ in model.rows}) > 1 for model, _ in slices)
    trees = [(TreeModel((2, 3)), make_slice_tree((2, 3), depth)) for depth in range(5)]
    for model, s in slices + trees:
        assert list(s.edges) == _truncated_edges(s, model)
    small = [s for _, s in slices + trees if 1 < len(s.vertices) <= 60]
    rng = random.Random(15)
    for _ in range(40):
        _assert_matches_sorted_product(rng.sample(small, rng.choice((2, 2, 3))))


def test_external_product_with_a_repeated_generator_sorts_fully():
    # generators 0 and 1 are both (1,): a source reaches one target along
    # both, so sorting on the source alone would not give sorted triples
    vertices = [Vertex((0,), ()), Vertex((1,), (0,)), Vertex((1,), (1,))]
    edges = [(0, w, g) for g in (0, 1) for w in (1, 2)]
    s = pg.PGraphSlice(((1,), (1,)), 1, ((0,), (1,)), tuple(vertices), tuple(edges))
    assert pg.check_rooted_strongly_simple(s).ok
    prod = _assert_matches_sorted_product([s, make_slice("tree3", "+1", 1)])
    assert list(prod.edges) == sorted(prod.edges)


def test_size_guard_counts_exactly_the_vertices_it_would_build(monkeypatch):
    # the count from the levels' caps equals the built vertex count: a
    # limit of V builds the slice, and a limit of V - 1 refuses it with V
    for name, pattern, depth, model, s in bundled_slices():
        P = cs.ConeSemigroup(model.flat_spec(), pattern)
        size = len(s.vertices)
        monkeypatch.setattr(pg, "MAX_SLICE_VERTICES", size)
        assert pg.build_slice(P, s.generators, model, depth) == s
        monkeypatch.setattr(pg, "MAX_SLICE_VERTICES", size - 1)
        with pytest.raises(SliceTooLarge) as refused:
            pg.build_slice(P, s.generators, model, depth)
        assert (refused.value.vertices, refused.value.limit) == (size, size - 1)


def test_size_guard_refuses_a_huge_slice_before_listing_any_fiber(monkeypatch):
    # about 1.1e11 vertices at depth 4; building it would exhaust memory
    model = PadicModel(((5, (0, 1, 1)), (3, (1, -2, 0)), (3, (-1, -2, 1))))
    P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse("-1+2+3"))
    gens = cs.minimal_generators(P, 100)
    monkeypatch.setattr(pg, "fiber", None)  # never called
    start = time.perf_counter()
    with pytest.raises(SliceTooLarge, match="would hold 107553164447 vertices") as refused:
        pg.build_slice(P, gens, model, 4)
    assert time.perf_counter() - start < 1.0
    assert refused.value.limit == pg.MAX_SLICE_VERTICES


def test_product_size_guard(monkeypatch):
    a, b = make_slice("5_2", "+1+2+3", 2), make_slice("tree3", "+1", 3)
    size = len(a.vertices) * len(b.vertices)
    monkeypatch.setattr(pg, "MAX_SLICE_VERTICES", size)
    assert len(pg.external_product([a, b]).vertices) == size
    monkeypatch.setattr(pg, "MAX_SLICE_VERTICES", size - 1)
    with pytest.raises(SliceTooLarge, match=f"product would hold {size} vertices"):
        pg.external_product([a, b])


def test_build_slice_levels_and_fibers():
    s = make_slice("5_1", "+1+2", 2)
    assert s.levels == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    sizes = {x: len(s.fiber_at(x)) for x in s.levels}
    assert sizes == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 4, (1, 1): 4, (0, 2): 4}


def test_build_slice_depth_zero():
    s = make_slice("5_2", "+1+2+3", 0)
    assert len(s.vertices) == 1 and not s.edges
    # with no generators, the sums of at most d generators are {0} at every d
    P = cs.ConeSemigroup(MODELS["tree3"].flat_spec(), cs.SignPattern.of((1,), ()))
    bare = pg.PGraphSlice((), 0, ((0,),), (Vertex((0,), ()),), ())
    for t in (bare, pg.build_slice(P, [], MODELS["tree3"], 2)):
        assert len(t.vertices) == 1 and not t.edges
        for d in range(3):
            assert pg.check_regularity(t, d) == pg._regularity_by_matcher(t, d)
            assert pg.check_regularity(t, d).details == (f"compared 1 cones at depth {d}",)
        assert pg.check_rooted_strongly_simple(t).ok and pg.check_factorization(t).ok
        assert pg.check_fiber_regularity(t).ok
        assert pg.check_product_of_trees(t).status == pg.PRODUCT_OF_TREES


def test_build_slice_5_3_fiber():
    s = make_slice("5_3", "+1+2", 2)
    assert len(s.fiber_at((2, 0))) == 16
    assert len(s.levels) == 9  # word-length <= 2 over three generators


def test_slice_edge_invariants():
    for key, text, depth in [("5_2", "+1+2+3", 2), ("5_3", "+1+2", 2), ("5_1", "+1-2", 2)]:
        s = make_slice(key, text, depth)
        spec = s.semigroup.spec
        # degree additivity: every edge moves by its generator
        for u, w, g in s.edges:
            assert tuple(
                a - b
                for a, b in zip(s.vertices[w].level, s.vertices[u].level)
            ) == s.generators[g]
        # out-degree per generator is the generator's scale
        for i, v in enumerate(s.vertices):
            for g, gen in enumerate(s.generators):
                up = tuple(a + b for a, b in zip(v.level, gen))
                expected = scale(spec, gen) if up in s.level_set else 0
                assert len(s.succ[i].get(g, ())) == expected
        # fibers partition the vertex set by level
        assert sum(len(s.fiber_at(x)) for x in s.levels) == len(s.vertices)


# ---------------------------------------------------------------------------
# rooted / strongly simple, with fault injection


def test_rooted_strongly_simple_passes():
    assert pg.check_rooted_strongly_simple(make_slice("5_2", "+1+2+3", 3)).ok
    assert pg.check_rooted_strongly_simple(make_slice("5_2", "+1+2+3", 0)).ok
    assert pg.check_rooted_strongly_simple(make_slice("5_3", "+1+2", 3)).ok


def _retarget_edge_target(s):
    """Point one edge into level (1,1) at a different target vertex."""
    edges = list(s.edges)
    for i, (u, w, g) in enumerate(edges):
        if s.vertices[w].level == (1, 1):
            others = [t for t in s.fiber_at((1, 1)) if t != w]
            edges[i] = (u, others[0], g)
            return dataclasses.replace(s, edges=tuple(sorted(edges)))
    raise AssertionError("no edge into (1,1)")


def _retarget_edge_source(s):
    """Rehang one edge into level (1,1) from a different source vertex."""
    edges = list(s.edges)
    for i, (u, w, g) in enumerate(edges):
        if s.vertices[w].level == (1, 1) and s.vertices[u].level == (1, 0):
            others = [t for t in s.fiber_at((1, 0)) if t != u]
            edges[i] = (others[0], w, g)
            return dataclasses.replace(s, edges=tuple(sorted(edges)))
    raise AssertionError("no edge (1,0) -> (1,1)")


def test_fault_injection_target():
    corrupted = _retarget_edge_target(make_slice("5_2", "+1+2+3", 2))
    report = pg.check_rooted_strongly_simple(corrupted)
    assert not report.ok and report.witnesses
    assert not pg.check_factorization(corrupted).ok


def test_fault_injection_source():
    corrupted = _retarget_edge_source(make_slice("5_2", "+1+2+3", 3))
    report = pg.check_rooted_strongly_simple(corrupted)
    assert not report.ok
    assert any(w[0] == "ambiguous" for w in report.witnesses)


def _swap_edge_sources(s, level):
    """Exchange the sources of two edges into `level` along one generator.

    Every in-degree stays 1, so only the word part of the rooted check
    can notice."""
    edges = list(s.edges)
    into = [i for i, (u, w, g) in enumerate(edges) if s.vertices[w].level == level]
    i = into[0]
    j = next(j for j in into if edges[j][2] == edges[i][2] and edges[j][0] != edges[i][0])
    (u, w, g), (u2, w2, _) = edges[i], edges[j]
    edges[i], edges[j] = (u2, w, g), (u, w2, g)
    return dataclasses.replace(s, edges=tuple(sorted(edges)))


def _predecessors(s):
    """Reference: each (vertex, generator index)'s predecessors, read off
    the edges."""
    out = {}
    for u, w, gi in s.edges:
        out.setdefault((w, gi), []).append(u)
    return out


def _reference_walk(pred, w, word):
    """Reference: the ancestor of w found by undoing the word's steps along
    unique predecessors, or None where a step back is not unique."""
    for g in reversed(word):
        us = pred.get((w, g), ())
        if len(us) != 1:
            return None
        (w,) = us
    return w


def _word_walking_checks(s):
    """Reference: the witnesses of the rooted check's word part and of the
    factorization check, found by walking generator words."""
    first_word = lru_cache(maxsize=None)(lambda x, y: s.gen_words(x, y)[0])

    def anc(w, x):
        y = s.vertices[w].level
        return s.walk_back(w, first_word(x, y)) if y in s.reachable[x] else None

    ambiguous = []
    for x in s.levels:
        for y in s.reachable[x]:
            words = s.gen_words(x, y)
            for word in words[1:]:
                for w in s.fiber_at(y):
                    if s.walk_back(w, word) != s.walk_back(w, words[0]):
                        ambiguous.append(("ambiguous", w, x, words[0], word))
    factorization = []
    for x in s.levels:
        for y in s.reachable[x]:
            for z in s.reachable[x]:
                if y not in s.reachable[z]:
                    continue
                for w in s.fiber_at(y):
                    v = anc(w, x)
                    if v is None:
                        factorization.append(("no_ancestor", w, x))
                        continue
                    count = sum(
                        1 for u in s.fiber_at(z) if anc(w, z) == u and anc(u, x) == v
                    )
                    if count != 1:
                        factorization.append(("split", w, x, z, y, count))
    return tuple(ambiguous), tuple(factorization)


CLEAN_SLICES = [("5_1", "+1+2", 3), ("5_2", "+1+2+3", 3), ("5_3", "+1+2", 3),
                ("coprime", "+1+2", 3), ("tree3", "+1", 4), ("5_1", "+1-2", 2)]


def _corrupted_slices():
    return [
        _retarget_edge_target(make_slice("5_2", "+1+2+3", 2)),
        _retarget_edge_target(make_slice("5_2", "+1+2+3", 3)),
        _retarget_edge_source(make_slice("5_2", "+1+2+3", 3)),
        _swap_edge_sources(make_slice("5_3", "+1+2", 3), (2, 0)),
        # words from (2, 1) disagree further up than the first step shows
        _swap_edge_sources(make_slice("5_1", "+1+2", 4), (2, 1)),
    ]


def test_ancestor_table_is_first_word_walk():
    rng = random.Random(14)
    clean = [make_slice(*args) for args in CLEAN_SLICES]
    fuzzed = [_fuzzed(rng.choice(clean), rng) for _ in range(30)]
    for s in clean + _corrupted_slices() + fuzzed + [_resource_off_level(clean[1])]:
        pred, lost = _predecessors(s), len(s.vertices)
        table = s.ancestor_table
        assert set(table) == {(x, y) for x in s.levels for y in s.reachable[x]}
        for (x, y), amap in table.items():
            word = s.gen_words(x, y)[0]
            walked = [_reference_walk(pred, w, word) for w in s.fibers[y]]
            assert amap == [lost if a is None else a for a in walked]
            assert [s.walk_back(w, word) for w in s.fibers[y]] == walked
            assert [s.ancestor(w, x) for w in s.fibers[y]] == walked


def _resource_off_level(s):
    """Rehang the last edge along generator 0 from the vertex at its
    source's position on another level.  That position is in range of
    the source's fiber, so only a level test tells that a walk back
    along the edge has left its level."""
    i = max(i for i, e in enumerate(s.edges) if e[2] == 0)
    u, w, g = s.edges[i]
    p = s.position[u]
    other = next(x for x in s.levels if x != s.vertices[u].level and len(s.fibers[x]) > p)
    edges = list(s.edges)
    edges[i] = (s.fibers[other][p], w, g)
    return dataclasses.replace(s, edges=tuple(sorted(edges)))


def test_walk_that_leaves_its_level():
    s = _resource_off_level(make_slice("5_2", "+1+2+3", 3))
    assert any(w[0] == "step" for w in pg.check_rooted_strongly_simple(s).witnesses)
    factorization = pg.check_factorization(s)
    assert factorization.witnesses == _word_walking_checks(s)[1]
    assert len(factorization.failures) == len(factorization.witnesses) > 0
    first_word = lru_cache(maxsize=None)(lambda x, y: s.gen_words(x, y)[0])
    left = 0
    for w, v in enumerate(s.vertices):
        for x in s.levels:
            if v.level in s.reachable[x]:
                a = s.walk_back(w, first_word(x, v.level))
                assert s.ancestor(w, x) == a
                left += a is not None and s.vertices[a].level != x
    assert left > 0
    for z in s.levels:
        below = [(a, x) for x in s.levels if z in s.reachable[x] for a in s.fiber_at(x)]
        for (a, x), (b, y) in itertools.combinations(below, 2):
            count = sum(s.walk_back(w, first_word(x, z)) == a
                        and s.walk_back(w, first_word(y, z)) == b for w in s.fiber_at(z))
            assert pg.common_descendants(s, s.vertices[a], s.vertices[b], z) == count


def test_checks_match_word_walking_reference():
    for s in [make_slice(*args) for args in CLEAN_SLICES] + _corrupted_slices():
        ambiguous, factorization = _word_walking_checks(s)
        assert pg.check_factorization(s).witnesses == factorization
        rooted = pg.check_rooted_strongly_simple(s)
        if not any(w[0] in ("in_degree", "unreachable") for w in rooted.witnesses):
            assert rooted.witnesses == ambiguous


def _rooted_reference_witnesses(s):
    """Reference: the rooted check's witnesses, from per-edge step tests,
    per-vertex in-degrees, a vertex search from the root, and then the
    word walk."""
    witnesses, pred = [], _predecessors(s)
    for u, w, gi in s.edges:
        x, y = s.vertices[u].level, s.vertices[w].level
        step = tuple(b - a for a, b in zip(x, y))
        if not 0 <= gi < len(s.generators) or step != s.generators[gi]:
            witnesses.append(("step", u, w, gi))
    for w, v in enumerate(s.vertices):
        for gi, g in enumerate(s.generators):
            below = tuple(a - b for a, b in zip(v.level, g))
            expected = int(below in s.level_set)
            if (got := len(pred.get((w, gi), ()))) != expected:
                witnesses.append(("in_degree", w, gi, got, expected))
    seen, stack = {s.root_index}, [s.root_index]
    while stack:
        for w in itertools.chain.from_iterable(s.succ[stack.pop()].values()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    witnesses += [("unreachable", w) for w in range(len(s.vertices)) if w not in seen]
    return tuple(witnesses) or _word_walking_checks(s)[0]


def _fuzzed(s, rng):
    """The slice with 1-3 edges retargeted, re-sourced or swapped: a
    retarget or re-source moves one end within its level, a swap exchanges
    the sources of two edges into one level along one generator."""
    edges = list(s.edges)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(edges))
        u, w, g = edges[i]
        kind = rng.choice(("retarget", "resource", "swap"))
        if kind == "swap":
            level = s.vertices[w].level
            mates = [j for j, (u2, w2, g2) in enumerate(edges)
                     if g2 == g and u2 != u and s.vertices[w2].level == level]
            if mates:
                j = rng.choice(mates)
                edges[i], edges[j] = (edges[j][0], w, g), (u, edges[j][1], g)
            continue
        end = w if kind == "retarget" else u
        others = [t for t in s.fiber_at(s.vertices[end].level) if t != end]
        if others:
            t = rng.choice(others)
            edges[i] = (u, t, g) if kind == "retarget" else (t, w, g)
    return dataclasses.replace(s, edges=tuple(sorted(edges)))


def test_checks_match_references_on_fuzzed_slices():
    # the rooted check decides (a) and (b) wholesale and (c) on positions;
    # factorization is proved from it; regularity compares cones by position
    rng = random.Random(11)
    slices = [s for *_, s in bundled_slices() if len(s.vertices) <= 400
              and any(len(ids) > 1 for ids in s.fiber_indices.values())]
    outcomes = Counter()
    for _ in range(200):
        s = clean = rng.choice(slices)
        while s.edges == clean.edges:
            s = _fuzzed(clean, rng)
        rooted = pg.check_rooted_strongly_simple(s)
        assert rooted.witnesses == _rooted_reference_witnesses(s)
        assert rooted.ok == (not rooted.witnesses)
        factorization = pg.check_factorization(s)
        assert factorization == pg._factorization_by_enumeration(s)
        assert factorization.witnesses == _word_walking_checks(s)[1]
        # the matcher takes up to a minute on some corrupted 313-vertex slices
        for depth in range(s.depth if len(s.vertices) <= 200 else 0):
            regularity = pg.check_regularity(s, depth)
            assert regularity == pg._regularity_by_matcher(s, depth)
            outcomes["regularity", rooted.ok, regularity.ok] += 1
        outcomes["rooted", rooted.ok] += 1
    assert outcomes["rooted", True] > 20 and outcomes["rooted", False] > 80
    assert outcomes["regularity", True, False] > 5 and outcomes["regularity", True, True] > 20


def test_step_columns_match_predecessors():
    rng = random.Random(12)
    clean = [s for *_, s in bundled_slices() if s.edges and len(s.vertices) <= 400]
    s = make_slice("5_2", "+1+2+3", 2)
    u, w, g = s.edges[-1]
    sibling = next(t for t in s.fiber_at(s.vertices[u].level) if t != u)
    odd = [  # one edge hung from the root, off its level; two edges off the generators;
        # the last edge twice; a second g-edge into its target, from its source's level
        dataclasses.replace(s, edges=tuple(sorted(s.edges[:-1] + ((0, w, g),)))),
        dataclasses.replace(s, edges=s.edges + ((0, w, -1), (0, w, 2))),
        dataclasses.replace(s, edges=s.edges + ((u, w, g),)),
        dataclasses.replace(s, edges=tuple(sorted(s.edges + ((sibling, w, g),)))),
    ]
    for t in odd:
        assert pg.check_rooted_strongly_simple(t).witnesses == _rooted_reference_witnesses(t)
    for s in clean + odd + [_fuzzed(rng.choice(clean), rng) for _ in range(100)]:
        pred = _predecessors(s)
        for x, steps in s.level_steps.items():
            for gi, y in steps:
                preds = [pred.get((w, gi), ()) for w in s.fibers[y]]
                if all(len(us) == 1 and s.vertices[us[0]].level == x for us in preds):
                    want = tuple(s.fibers[x].index(us[0]) for us in preds)
                else:
                    want = None
                assert s.step_columns[(y, gi)] == want
        assert all(s.fibers[v.level][s.position[i]] == i for i, v in enumerate(s.vertices))


def test_rooted_check_counts_edges_beside_the_step_columns():
    # an edge from level 1 back to the root steps by (-1,), not by
    # generator 0; no level lies below the root, so no column changes
    s = make_slice("tree3", "+1", 2)
    t = dataclasses.replace(s, edges=tuple(sorted(s.edges + ((1, 0, 0),))))
    assert t.step_columns == s.step_columns
    assert (len(t.edges), sum(map(len, t.step_columns.values()))) == (13, 12)
    report = pg.check_rooted_strongly_simple(t)
    assert not report.ok
    assert report.witnesses == (("step", 1, 0, 0), ("in_degree", 0, 0, 1, 0))
    assert report.witnesses == _rooted_reference_witnesses(t)


def test_rooted_check_names_vertices_over_unreachable_levels():
    # in-degrees are right, but no generator step leads from 0 to 1 or 3
    s = pg.PGraphSlice(
        generators=((2,),),
        depth=1,
        levels=((0,), (1,), (3,)),
        vertices=(Vertex((0,), ()), Vertex((1,), ()), Vertex((3,), ())),
        edges=((1, 2, 0),),
    )
    report = pg.check_rooted_strongly_simple(s)
    assert report.witnesses == (("unreachable", 1), ("unreachable", 2))
    assert report.witnesses == _rooted_reference_witnesses(s)


def test_swapped_sources_are_ambiguous():
    report = pg.check_rooted_strongly_simple(
        _swap_edge_sources(make_slice("5_3", "+1+2", 3), (2, 0))
    )
    assert not report.ok
    assert {w[0] for w in report.witnesses} == {"ambiguous"}


def _cyclic_slice():
    """Two levels joined by the steps (1,) and (-1,): a cycle of levels."""
    return pg.PGraphSlice(
        generators=((1,), (-1,)),
        depth=1,
        levels=((0,), (1,)),
        vertices=(Vertex((0,), ()), Vertex((1,), ())),
        edges=((0, 1, 0), (1, 0, 1)),
    )


def test_level_cycle_not_applicable():
    s = _cyclic_slice()
    with pytest.raises(NotApplicable, match="cycle"):
        s.reachable
    # the rooted, factorization and fiber checks report the cycle as their
    # one failure, and do not raise
    for check, name in ((pg.check_rooted_strongly_simple, "rooted_strongly_simple"),
                        (pg.check_factorization, "factorization"),
                        (pg.check_fiber_regularity, "fiber_regularity")):
        assert check(s) == pg.CheckReport(name, False, ("level graph has a cycle",))
    with pytest.raises(NotApplicable, match=r"\('level graph has a cycle',\)"):
        pg.external_product([s])
    # the rooted check fails on the cycle, so regularity goes to the matcher
    assert pg.check_regularity(s, 0) == pg._regularity_by_matcher(s, 0)
    assert pg.check_regularity(s, 0).details == ("compared 2 cones at depth 0",)


def test_run_checks_reports_a_level_cycle_per_check():
    lines, failed = cli._run_checks(_cyclic_slice(), [*cli.STRUCTURAL_CHECKS, "product"], 0)
    assert failed
    assert lines == [
        "rooted: FAIL", "    level graph has a cycle",
        "factorization: FAIL", "    level graph has a cycle",
        "fibers: FAIL", "    level graph has a cycle",
        "regularity: PASS",
        "product-of-trees: not_free_semigroup",
    ]


# ---------------------------------------------------------------------------
# factorization


def test_factorization_passes():
    assert pg.check_factorization(make_slice("5_2", "+1+2+3", 2)).ok
    assert pg.check_factorization(make_slice("5_2", "+1+2+3", 0)).ok
    assert pg.check_factorization(make_slice("5_3", "+1+2", 2)).ok


def test_factorization_failure_count_pinned():
    report = pg.check_factorization(_retarget_edge_target(make_slice("5_2", "+1+2+3", 3)))
    assert len(report.failures) == 100


def test_checks_on_moller_tree_depth_8():
    s = make_slice("tree3", "+1", 8)
    assert len(s.vertices) == 9841
    assert pg.check_rooted_strongly_simple(s).ok
    assert pg.check_factorization(s).ok
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default; the depth-7 cones have 3280 nodes
    try:
        regularity = pg.check_regularity(s, 7)
    finally:
        sys.setrecursionlimit(limit)
    assert regularity.ok and regularity.details == ("compared 4 cones at depth 7",)


def test_factorization_split_counts_by_hand():
    s = make_slice("5_3", "+1+2", 2)
    # degree 2e1 splits as e1+e1, (e1-e2)+(e1+e2), (e1+e2)+(e1-e2): each
    # target at (2,0) must see exactly one intermediate per split level
    for w in s.fiber_at((2, 0)):
        for z in [(1, 0), (1, -1), (1, 1)]:
            count = sum(
                1
                for u in s.fiber_at(z)
                if s.ancestor(w, z) == u and s.ancestor(u, (0, 0)) == s.root_index
            )
            assert count == 1


def test_morphism_witness():
    # the morphism into w from level (1, 0) is the edge from its ancestor there
    s = make_slice("5_2", "+1+2+3", 2)
    w = s.fiber_at((1, 1))[3]
    v = s.ancestor(w, (1, 0))
    degree = tuple(a - b for a, b in zip(s.vertices[w].level, s.vertices[v].level))
    assert degree == (0, 1) and (v, w, s.generators.index(degree)) in s.edges
    others = [u for u in s.fiber_at((1, 0)) if u != v]
    assert others and not any((u, w, gi) in s.edges for u in others for gi in range(2))


# ---------------------------------------------------------------------------
# fiber regularity


def test_fiber_regularity_examples():
    s = make_slice("5_3", "+1+2", 2)
    report = pg.check_fiber_regularity(s)
    assert report.ok
    assert len(s.fiber_at((2, 0))) == 16

    s = make_slice("5_1", "+1+2", 3)
    assert pg.check_fiber_regularity(s).ok
    assert len(s.fiber_at((2, 1))) == 8

    assert pg.check_fiber_regularity(make_slice("5_2", "+1+2+3", 0)).ok


def _multiset_expressions(slice_, x):
    """All generator multisets summing to x whose partial sums, taken in
    generator order, are levels; as count tuples."""
    n = len(slice_.generators)
    zero = tuple([0] * len(x))

    def rec(target, start):
        if target == zero:
            yield (0,) * n
            return
        for gi in range(start, n):
            rest = tuple(a - b for a, b in zip(target, slice_.generators[gi]))
            if rest in slice_.level_set or rest == zero:
                for counts in rec(rest, gi):
                    yield tuple(c + (1 if i == gi else 0) for i, c in enumerate(counts))

    return set(rec(x, 0))


def _enumerated_fiber_regularity(slice_):
    """Reference: every expression's product of generator fiber sizes is
    the fiber size of its level."""
    gen_sizes = {
        gi: len(slice_.fiber_at(g))
        for gi, g in enumerate(slice_.generators)
        if g in slice_.level_set
    }
    for x in slice_.levels:
        for counts in _multiset_expressions(slice_, x):
            expected = 1
            for gi, m in enumerate(counts):
                if m:
                    expected *= gen_sizes.get(gi, 0) ** m
            if expected != len(slice_.fiber_at(x)):
                return False
    return True


def _drop_vertex(s, r):
    """The slice without vertex r and its edges."""
    shift = lambda i: i - (i > r)  # noqa: E731
    return dataclasses.replace(
        s,
        vertices=s.vertices[:r] + s.vertices[r + 1 :],
        edges=tuple((shift(u), shift(w), g) for u, w, g in s.edges if r not in (u, w)),
    )


def test_fiber_regularity_matches_enumeration():
    outcomes = Counter()
    for name, pattern, depth, _, s in bundled_slices():
        # the last vertex of each fiber, in turn, goes missing
        variants = [s] + [_drop_vertex(s, s.fiber_at(x)[-1]) for x in s.levels]
        for v in variants:
            ok = pg.check_fiber_regularity(v).ok
            assert ok == _enumerated_fiber_regularity(v), (name, pattern, depth)
            outcomes[ok] += 1
    assert outcomes[True] > 100 and outcomes[False] > 300


def test_fiber_regularity_failure_names_the_step():
    s = make_slice("5_1", "+1+2", 2)  # generators (0, 1), (1, 0)
    report = pg.check_fiber_regularity(_drop_vertex(s, s.fiber_at((1, 1))[-1]))
    assert report.failures == (
        "level (1, 1): fiber has 3, but level (1, 0) times generator 0 predicts 4",
        "level (1, 1): fiber has 3, but level (0, 1) times generator 1 predicts 4",
    )
    assert report.witnesses == (
        ("fiber_count", (1, 1), 0, 4, 3),
        ("fiber_count", (1, 1), 1, 4, 3),
    )
    root = pg.check_fiber_regularity(_drop_vertex(s, s.root_index))
    assert root.failures[0] == "level (0, 0): fiber has 0, want 1"


def test_fiber_regularity_stricter_off_closed_levels():
    # (1, 1) is reached only through (1, 0), and the generator (0, 1) is no
    # level: no multiset expression of (1, 1) has its partial sums in the
    # slice, but the step from (1, 0) along (0, 1) predicts an empty fiber
    s = pg.PGraphSlice(
        generators=((1, 0), (0, 1)),
        depth=2,
        levels=((0, 0), (1, 0), (1, 1)),
        vertices=(Vertex((0, 0), ()), Vertex((1, 0), ()), Vertex((1, 1), ())),
        edges=((0, 1, 0), (1, 2, 1)),
    )
    assert _enumerated_fiber_regularity(s)
    report = pg.check_fiber_regularity(s)
    assert not report.ok
    assert report.witnesses == (("fiber_count", (1, 1), 1, 0, 1),)


# ---------------------------------------------------------------------------
# regularity of descendant cones


def test_regularity_passes():
    assert pg.check_regularity(make_slice("5_2", "+1+2+3", 3), 2).ok
    assert pg.check_regularity(make_slice("5_2", "+1+2+3", 2), 0).ok
    assert pg.check_regularity(make_slice("5_3", "+1+2", 3), 1).ok


def test_regularity_of_tree_product():
    t2 = make_slice_tree((2, 3), 2)
    assert pg.check_regularity(t2, 1).ok


def test_regularity_of_relabelled_models():
    # both relabellings ran past 25 s under a vertex-order-sensitive matcher
    for key, text, depth in [("5_2_rows", "+1+2+3", 4), ("5_3_swap", "+1+2", 3)]:
        s = make_slice(key, text, depth)
        start = time.perf_counter()
        assert pg.check_regularity(s, depth - 1).ok
        assert time.perf_counter() - start < 5


def test_regularity_fails_on_corrupted_slice():
    report = pg.check_regularity(_retarget_edge_source(make_slice("5_2", "+1+2+3", 2)), 1)
    assert not report.ok
    assert report.failures == tuple(
        f"descendant cone of Vertex(level=(1, 0), residues={r}) differs from the majority"
        " cone at depth 1"
        for r in ((0, 0, 0), (0, 1, 0))
    )
    assert report.witnesses == (("cone", 21, 1), ("cone", 22, 1))
    assert report.details == ("compared 9 cones at depth 1",)


def test_regularity_blames_the_corrupted_root_cone():
    # the retargeted edge lies in the cones of vertices 0 and 1 only; the
    # seven clean cones form the majority class
    report = pg.check_regularity(_retarget_edge_target(make_slice("5_2", "+1+2+3", 3)), 2)
    assert not report.ok
    assert report.witnesses == (("cone", 0, 2), ("cone", 1, 2))
    assert report.failures[0] == (
        "descendant cone of Vertex(level=(0, 0), residues=(0, 0, 0)) differs from the"
        " majority cone at depth 2"
    )
    assert report.details == ("compared 9 cones at depth 2",)


def test_regularity_of_permuted_slices_needs_no_matcher(monkeypatch):
    # on renumbered slices the matcher took 9 s to more than 60 s; cones
    # compared by residue position do not depend on vertex numbering
    def no_matcher(c1, c2):
        raise AssertionError("cones_isomorphic called")

    monkeypatch.setattr(pg, "cones_isomorphic", no_matcher)
    rng = random.Random(5)
    for key, text, depth, cone_depth in [("5_2", "+1+2+3", 3, 2), ("5_2", "+1+2+3", 4, 3),
                                         ("5_3", "+1+2", 4, 3)]:
        clean = make_slice(key, text, depth)
        for _ in range(2):
            s = _shuffled(clean, rng)
            assert s.fiber_indices != clean.fiber_indices
            report = pg.check_regularity(s, cone_depth)
            assert report == pg.check_regularity(clean, cone_depth) and report.ok


def test_regularity_with_a_repeated_generator_goes_to_the_matcher():
    # generators 0 and 1 are both (1,) and join the same pairs; a cone keeps
    # one edge per pair, labelled by the generator met last in successor
    # order, which the unsorted edges make 0 out of the root and 1 below
    vertices = [Vertex((0,), ())] + [Vertex((1,), (i,)) for i in range(2)]
    vertices += [Vertex((2,), (i, j)) for i in range(2) for j in range(2)]
    edges = [(0, 1, 1), (0, 2, 1), (0, 1, 0), (0, 2, 0)]
    edges += [(p, c, g) for p, cs in ((1, (3, 4)), (2, (5, 6))) for g in (0, 1) for c in cs]
    s = pg.PGraphSlice(((1,), (1,)), 2, ((0,), (1,), (2,)), tuple(vertices), tuple(edges))
    assert pg.check_rooted_strongly_simple(s).ok
    report = pg.check_regularity(s, 1)
    assert report == pg._regularity_by_matcher(s, 1)
    assert report.witnesses == (("cone", 0, 1),)


def _move_leaf(s):
    """Rehang the last edge, into a top-level leaf, from a sibling of its source."""
    edges = list(s.edges)
    u, w, g = edges[-1]
    grandparent, _, h = next(e for e in s.edges if e[1] == u)
    sibling = next(t for t in s.succ[grandparent][h] if t != u)
    edges[-1] = (sibling, w, g)
    return dataclasses.replace(s, edges=tuple(sorted(edges)))


def test_moved_leaf_rejected_quickly():
    # same node, edge and offset counts; only colour refinement tells them apart fast
    for key, text, depth in [("tree3", "+1", 5), ("tree3", "+1", 6), ("5_2", "+1+2+3", 4)]:
        clean = make_slice(key, text, depth)
        moved = _move_leaf(clean)
        start = time.perf_counter()
        assert not pg.cones_isomorphic(
            pg.descendant_cone(clean, clean.root_index, depth),
            pg.descendant_cone(moved, moved.root_index, depth),
        )
        assert not pg.check_regularity(moved, depth - 1).ok
        assert time.perf_counter() - start < 1


def test_descendant_cone_keeps_one_edge_per_pair():
    # a corrupted slice joins 0 -> 2 along both generators; the cone keeps
    # one edge per pair, labelled by the generator met last in successor order
    s = pg.PGraphSlice(
        generators=((0, 1), (1, 0)),
        depth=1,
        levels=((0, 0), (0, 1), (1, 0)),
        vertices=(Vertex((0, 0), ()), Vertex((0, 1), ()), Vertex((1, 0), ())),
        edges=((0, 1, 0), (0, 2, 0), (0, 2, 1)),
    )
    cone = pg.descendant_cone(s, 0, 1)
    assert cone.edges == {(0, 1, 0), (0, 2, 1)}
    assert cone.tree_edge == {1: (0, 0), 2: (0, 1)}


def _two_level_slice(pairs):
    """Rank 1: a root below vertices 0..5 at level 1, joined to vertices
    0..5 at level 2 by `pairs` of (level-1 index, level-2 index)."""
    vertices = [Vertex((0,), ())] + [Vertex((x,), (i,)) for x in (1, 2) for i in range(6)]
    edges = [(0, 1 + i, 0) for i in range(6)] + [(1 + i, 7 + j, 0) for i, j in pairs]
    return pg.PGraphSlice(((1,),), 2, ((0,), (1,), (2,)), tuple(vertices), tuple(sorted(edges)))


def test_cones_isomorphic_beyond_colour_refinement():
    # a 12-cycle and two 6-cycles between levels 1 and 2: every node has
    # the same colour in both, so only the search tells them apart
    one_cycle = [(i, j) for i in range(6) for j in (i, (i + 1) % 6)]
    two_cycles = [(i, j) for i in range(6) for j in (i, 3 * (i // 3) + (i + 1) % 3)]
    # the 12-cycle renumbered, so that the first candidates do not fit
    sigma, tau = (3, 0, 4, 1, 5, 2), (2, 5, 1, 3, 0, 4)
    renumbered = [(sigma[i], tau[j]) for i, j in one_cycle]
    a, b, c = (
        pg.descendant_cone(_two_level_slice(pairs), 0, 2)
        for pairs in (one_cycle, two_cycles, renumbered)
    )
    assert sorted(a.colours.values()) == sorted(b.colours.values())
    assert not pg.cones_isomorphic(a, b) and not pg.cones_isomorphic(b, a)
    assert pg.cones_isomorphic(a, c) and pg.cones_isomorphic(c, a)


def _nx_cone(nx, s, v, depth):
    """A descendant cone as a networkx DiGraph, built from the slice directly."""
    dist = {v: 0}
    order = [v]
    for u in order:
        if dist[u] < depth:
            for w in (w for ws in s.succ[u].values() for w in ws if w not in dist):
                dist[w] = dist[u] + 1
                order.append(w)
    g = nx.DiGraph()
    for u in order:
        offset = tuple(a - b for a, b in zip(s.vertices[u].level, s.vertices[v].level))
        g.add_node(u, offset=offset)
    for u in order:
        for gi, ws in s.succ[u].items():
            for w in ws:
                if w in dist:
                    g.add_edge(u, w, gen=gi)
    return g


def _corrupt(s, rng, kind):
    """Retarget, drop, duplicate or move (to another source) one random edge."""
    edges = list(s.edges)
    i = rng.randrange(len(edges))
    u, w, g = edges[i]
    if kind == "drop":
        del edges[i]
    elif kind == "duplicate":
        edges.append(edges[i])
    else:
        end = w if kind == "retarget" else u
        others = [t for t in s.fiber_at(s.vertices[end].level) if t != end]
        if not others:
            return s
        t = rng.choice(others)
        edges[i] = (u, t, g) if kind == "retarget" else (t, w, g)
    return dataclasses.replace(s, edges=tuple(sorted(edges)))


def test_cones_isomorphic_agrees_with_vf2():
    nx = pytest.importorskip("networkx")
    iso = nx.algorithms.isomorphism

    def vf2(a, b):
        return iso.DiGraphMatcher(
            a,
            b,
            node_match=lambda x, y: x["offset"] == y["offset"],
            edge_match=lambda x, y: x["gen"] == y["gen"],
        ).is_isomorphic()

    rng = random.Random(0)
    outcomes = Counter()
    for key, text, depth in [("5_1", "+1+2", 3), ("5_2", "+1+2+3", 3), ("5_3", "+1+2", 2),
                             ("coprime", "+1+2", 3), ("tree3", "+1", 4)]:
        clean = make_slice(key, text, depth)
        variants = [clean] + [
            _corrupt(clean, rng, kind)
            for kind in ("retarget", "drop", "duplicate", "move")
            for _ in range(2)
        ]
        for cone_depth in (1, 2):
            rep = pg.descendant_cone(clean, clean.root_index, cone_depth)
            rep_nx = _nx_cone(nx, clean, clean.root_index, cone_depth)
            # vertices whose whole cone fits in the slice
            eligible = [
                v for v in range(len(clean.vertices))
                if len(pg.descendant_cone(clean, v, cone_depth).order) == len(rep.order)
            ]
            for s in variants:
                for v in eligible:
                    cone = pg.descendant_cone(s, v, cone_depth)
                    expected = vf2(rep_nx, _nx_cone(nx, s, v, cone_depth))
                    assert pg.cones_isomorphic(rep, cone) == expected, (key, v, cone_depth)
                    assert pg.cones_isomorphic(cone, rep) == expected, (key, v, cone_depth)
                    sizes = (len(cone.order), len(cone.edges))
                    outcomes[expected, sizes == (len(rep.order), len(rep.edges))] += 1
    # non-isomorphic pairs include some that node and edge counts cannot tell apart
    assert outcomes[True, True] > 1000
    assert outcomes[False, False] > 50 and outcomes[False, True] > 0


def make_slice_tree(valencies, depth):
    model = TreeModel(valencies)
    spec = model.flat_spec()
    pattern = cs.SignPattern.of(range(1, len(valencies) + 1), ())
    P = cs.ConeSemigroup(spec, pattern)
    return pg.build_slice(P, cs.minimal_generators(P, 8), model, depth)


# ---------------------------------------------------------------------------
# common descendants


def test_common_descendants_examples():
    s = make_slice("5_2", "+1+2+3", 2)
    a = Vertex((1, 0), (1, 1, 0))
    b = Vertex((0, 1), (0, 1, 1))
    assert pg.common_descendants(s, a, b, (1, 1)) == 2
    assert pg.common_descendants(s, a, Vertex((0, 1), (0, 0, 1)), (1, 1)) == 0
    root = s.vertices[s.root_index]
    assert pg.common_descendants(s, root, b, (1, 1)) == math.prod(
        cy // cx for cx, cy in zip(caps(MODELS["5_2"], (0, 1)), caps(MODELS["5_2"], (1, 1)))
    )
    with pytest.raises(LevelNotComparable):
        pg.common_descendants(s, a, b, (1, 0))


# ---------------------------------------------------------------------------
# products of trees


def test_product_of_trees_statuses():
    assert pg.check_product_of_trees(make_slice("5_1", "+1+2", 2)).is_product
    s = make_slice("5_2", "+1+2+3", 2)
    result = pg.check_product_of_trees(s)
    assert result.status == pg.NOT_PRODUCT and len(result.witness) == 6
    # the witness is named in vertex-index order, whatever the edge order
    assert pg.check_product_of_trees(dataclasses.replace(s, edges=s.edges[::-1])) == result
    assert pg.check_product_of_trees(make_slice("coprime", "+1+2", 2)).is_product
    assert pg.check_product_of_trees(make_slice("5_3", "+1+2", 2)).status == pg.NOT_FREE


def test_product_of_trees_refuses_slices_that_fail_the_rooted_check():
    # each slice has a vertex with two predecessors along one generator,
    # so it is no tree, yet a second route once called both product_of_trees
    def bundled(name, pattern, depth):
        model, _ = load_config(bundled_config_path(name))
        P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse(pattern))
        return pg.build_slice(P, cs.minimal_generators(P, 16), model, depth)

    tree = bundled("moller_tree", "+1", 2)
    square = bundled("example_5_1", "+1+2", 2)
    u, w, g = square.edges[-1]
    sibling = next(t for t in square.fiber_at(square.vertices[u].level) if t != u)
    for s, extra in ((tree, (2, 4, 0)), (square, (sibling, w, g))):
        assert pg.check_product_of_trees(s).is_product
        t = dataclasses.replace(s, edges=tuple(sorted(s.edges + (extra,))))
        assert "2 predecessors along generator" in pg.check_rooted_strongly_simple(t).failures[0]
        assert pg.check_product_of_trees(t) == pg.ProductOfTreesResult(
            pg.NOT_PRODUCT, ("not_rooted",)
        )
    # a level cycle fails the rooted check too, but its steps sum to zero,
    # a relation among the generators, so it is not free
    assert not _cyclic_slice().rooted_report.ok
    assert pg.check_product_of_trees(_cyclic_slice()).status == pg.NOT_FREE


def _square_condition_by_edges(s):
    """The square condition read straight off the edge list: for each
    square (x, gi, gj) in level order, each v over x in vertex order and
    its children a along gi and b along gj in vertex order, the common
    children of a along gj and b along gi must be exactly one."""
    children = {}
    for u, w, g in sorted(s.edges):
        children.setdefault((u, g), []).append(w)
    gens = s.generators
    for x in s.levels:
        for gi, gj in itertools.combinations(range(len(gens)), 2):
            xg, xh = (tuple(map(sum, zip(x, gens[k]))) for k in (gi, gj))
            if not {xg, xh, tuple(map(sum, zip(xg, gens[gj])))} <= set(s.levels):
                continue
            for v in (i for i, vertex in enumerate(s.vertices) if vertex.level == x):
                for a in children.get((v, gi), ()):
                    for b in children.get((v, gj), ()):
                        c = len(set(children.get((a, gj), ())) & set(children.get((b, gi), ())))
                        if c != 1:
                            return pg.ProductOfTreesResult(pg.NOT_PRODUCT, (x, gi, gj, a, b, c))
    return pg.ProductOfTreesResult(pg.PRODUCT_OF_TREES)


def test_product_of_trees_matches_edge_reading():
    # step columns on slices that pass the rooted check, not_rooted on the
    # others; the oracle sorts the edges, so reversed edges change nothing
    rng = random.Random(13)
    clean = [s for *_, s in bundled_slices() if len(s.vertices) <= 400]
    not_rooted = pg.ProductOfTreesResult(pg.NOT_PRODUCT, ("not_rooted",))
    statuses = Counter()
    for s in clean + [_shuffled(rng.choice(clean), rng) for _ in range(60)]:
        unsorted = dataclasses.replace(s, edges=s.edges[::-1])
        fuzzed = _fuzzed(s, rng) if s.edges else s
        for t in (s, unsorted, fuzzed):
            result = pg.check_product_of_trees(t)
            rooted = pg.check_rooted_strongly_simple(t).ok
            if result.status != pg.NOT_FREE:
                assert result == (_square_condition_by_edges(t) if rooted else not_rooted)
            statuses[result.status, rooted] += 1
    assert statuses[pg.NOT_PRODUCT, True] > 20 and statuses[pg.PRODUCT_OF_TREES, True] > 20
    assert statuses[pg.NOT_PRODUCT, False] > 5


def test_predict_product_of_trees():
    spec = MODELS["coprime"].flat_spec()
    assert pg.predict_product_of_trees(spec, [(1, 0), (0, 1)])
    spec2 = MODELS["5_2"].flat_spec()
    assert not pg.predict_product_of_trees(spec2, [(1, 0), (0, 1)])
    assert pg.predict_product_of_trees(MODELS["tree3"].flat_spec(), [(1,)])
    with pytest.raises(NotApplicable):
        pg.predict_product_of_trees(
            MODELS["5_3"].flat_spec(), [(1, -1), (1, 0), (1, 1)]
        )


def test_prediction_implies_square_condition():
    for key, text in [("5_1", "+1+2"), ("5_1", "+1-2"), ("coprime", "+1+2"),
                      ("coprime", "-1+2"), ("5_2", "+1+2+3"), ("5_2", "+1+2-3")]:
        s = make_slice(key, text, 2)
        gens = cs.minimal_generators(s.semigroup, 16)
        predicted = pg.predict_product_of_trees(s.semigroup.spec, gens)
        if predicted:
            assert pg.check_product_of_trees(s).is_product


# ---------------------------------------------------------------------------
# external products


def test_external_product_of_trees():
    s2 = make_slice_tree((2,), 2)
    s3 = make_slice_tree((3,), 2)
    prod = pg.external_product([s2, s3])
    for x in prod.levels:
        assert len(prod.fiber_at(x)) == 2 ** x[0] * 3 ** x[1]
    assert pg.check_rooted_strongly_simple(prod).ok
    assert pg.check_product_of_trees(prod).is_product
    assert pg.check_regularity(prod, 1).ok


def test_external_product_with_point():
    s3 = make_slice_tree((3,), 2)
    point = make_slice_tree((2,), 0)
    prod = pg.external_product([s3, point])
    assert len(prod.vertices) == len(s3.vertices)
    assert len(prod.edges) == len(s3.edges)
    sizes = sorted(len(prod.fiber_at(x)) for x in prod.levels)
    assert sizes == sorted(len(s3.fiber_at(x)) for x in s3.levels)
    assert pg.check_rooted_strongly_simple(prod).ok


def test_external_product_matches_two_component_tree_model():
    prod = pg.external_product([make_slice_tree((2,), 2), make_slice_tree((3,), 2)])
    direct = make_slice_tree((2, 3), 2)
    # the product slice carries all level combinations; compare on the
    # common word-length region
    common = sorted(set(prod.levels) & set(direct.levels))
    assert set(direct.levels) <= set(prod.levels)
    for x in common:
        assert len(prod.fiber_at(x)) == len(direct.fiber_at(x))
    cert_prod = pg.cone_certificate(prod, prod.root_index, 2)
    cert_direct = pg.cone_certificate(direct, direct.root_index, 2)
    assert cert_prod == cert_direct
    assert pg.cones_isomorphic(
        pg.descendant_cone(prod, prod.root_index, 2),
        pg.descendant_cone(direct, direct.root_index, 2),
    )


def test_diagonal_padic_slice_is_explicit_tree_product():
    # cross-check at small depth: the depth-2 root cone of the diagonal
    # two-coordinate slice is isomorphic to the product of two single trees
    s = make_slice("5_1", "+1+2", 2)
    prod = pg.external_product([make_slice_tree((2,), 2), make_slice_tree((2,), 2)])
    assert pg.cone_certificate(s, s.root_index, 2) == pg.cone_certificate(
        prod, prod.root_index, 2
    )
    assert pg.cones_isomorphic(
        pg.descendant_cone(s, s.root_index, 2),
        pg.descendant_cone(prod, prod.root_index, 2),
    )


def _assert_matches_sorted_product(factors):
    prod = pg.external_product(factors)
    want = _sorted_product(factors)
    assert prod == want
    assert pg.slice_to_json(prod) == pg.slice_to_json(want)
    return prod


def test_external_product_matches_sorted_product_on_bundled_pairs():
    slices = list(dict.fromkeys(s for *_, s in bundled_slices()))
    pairs = [
        (a, b) for a in slices for b in slices if len(a.vertices) * len(b.vertices) <= 300
    ]
    for a, b in pairs:
        _assert_matches_sorted_product([a, b])
    assert len(pairs) > 3000


def _shuffled(s, rng):
    """The slice with its vertex and level order shuffled, edges remapped."""
    order = list(range(len(s.vertices)))
    rng.shuffle(order)
    new = {old: n for n, old in enumerate(order)}
    levels = list(s.levels)
    rng.shuffle(levels)
    return pg.PGraphSlice(
        generators=s.generators,
        depth=s.depth,
        levels=tuple(levels),
        vertices=tuple(s.vertices[i] for i in order),
        edges=tuple(sorted((new[u], new[w], g) for u, w, g in s.edges)),
    )


def test_external_product_matches_sorted_product_on_shuffled_factors():
    rng = random.Random(9)
    slices = [s for *_, s in bundled_slices() if 1 < len(s.vertices) <= 40]
    for _ in range(80):
        factors = [_shuffled(s, rng) for s in rng.sample(slices, rng.choice((1, 2, 2, 3)))]
        if math.prod(len(s.vertices) for s in factors) <= 2000:
            _assert_matches_sorted_product(factors)


def test_external_product_matches_sorted_product_on_imported_factors():
    uneven = pg.slice_from_json_dict(
        {
            "levels": [{"x": [0], "size": 1}, {"x": [1], "size": 2}],
            "vertices": [
                {"level": [0], "residues": []},
                {"level": [1], "residues": [-5]},
                {"level": [1], "residues": [1, 2]},
            ],
            "edges": [{"from": 0, "to": 1, "gen": 0}, {"from": 0, "to": 2, "gen": 0}],
        }
    )
    tree = make_slice("tree3", "+1", 2)
    _assert_matches_sorted_product([uneven, tree])
    _assert_matches_sorted_product([tree, uneven])

    # level [2] is listed but holds no vertex: no product level comes from it
    chain = pg.slice_from_json_dict(
        {
            "levels": [{"x": [i], "size": int(i < 2)} for i in range(3)],
            "vertices": [{"level": [i], "residues": [0]} for i in range(2)],
            "edges": [{"from": 0, "to": 1, "gen": 0}],
        }
    )
    out = _assert_matches_sorted_product([chain, tree])
    assert {x[0] for x in out.levels} == {0, 1}
    _assert_matches_sorted_product([tree, chain, uneven])


def test_external_product_rejects_bad_factor():
    bad = _retarget_edge_target(make_slice("5_2", "+1+2+3", 2))
    with pytest.raises(NotApplicable):
        pg.external_product([bad])


def test_external_product_rejects_an_edge_off_its_generator_step():
    # every in-degree is right, but the edge 0 -> 2 steps by (2,), not (1,)
    s = pg.PGraphSlice(
        generators=((1,),),
        depth=2,
        levels=((0,), (1,), (2,)),
        vertices=tuple(Vertex((i,), ()) for i in range(3)),
        edges=((0, 1, 0), (0, 2, 0)),
    )
    report = pg.check_rooted_strongly_simple(s)
    assert not report.ok and report.witnesses == (("step", 0, 2, 0),)
    assert report.failures == (
        "edge Vertex(level=(0,), residues=()) -> Vertex(level=(2,), residues=())"
        " steps by (2,), not by generator 0",
    )
    with pytest.raises(NotApplicable, match="steps by"):
        pg.external_product([s])


# ---------------------------------------------------------------------------
# virtually a product of trees


def test_virtually_product():
    rep = pg.virtually_product_subsemigroup(make_slice("5_3", "+1+2", 4))
    assert rep.q_generators == ((1, -1), (1, 1))
    assert rep.ok and rep.square.is_product

    rep0 = pg.virtually_product_subsemigroup(make_slice("5_3", "+1+2", 0))
    assert rep0.square.is_product  # nothing to check, trivially fine

    model_p3 = PadicModel(((3, (1, 1)), (3, (1, -1))))
    P = cs.ConeSemigroup(model_p3.flat_spec(), cs.SignPattern.parse("+1+2"))
    s = pg.build_slice(P, cs.minimal_generators(P, 16), model_p3, 3)
    assert pg.virtually_product_subsemigroup(s).ok

    with pytest.raises(NotApplicable):
        pg.virtually_product_subsemigroup(make_slice("5_1", "+1+2", 2))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = make_slice("5_3", "+1+2", 2)
    data = json.loads(json.dumps(pg.slice_to_json_dict(s)))
    back = pg.slice_from_json_dict(data)
    assert back.levels == s.levels
    assert back.vertices == s.vertices
    assert back.edges == s.edges
    assert back.generators == s.generators


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d.pop("levels"), "levels"),
        (lambda d: d["levels"].clear(), "levels"),
        (lambda d: d["levels"][1].update(x=[1]), "levels[1].x"),
        (lambda d: d["levels"][1].update(x="1,0"), "levels[1].x"),
        (lambda d: d["vertices"][0].update(level=[9, 9]), "vertices[0].level"),
        (lambda d: d["vertices"][0].pop("residues"), "vertices[0].residues"),
        (lambda d: d["edges"][0].update({"from": -1}), "edges[0].from"),
        (lambda d: d["edges"][0].update(gen="0"), "edges[0].gen"),
        (lambda d: d["edges"][0].update(gen=1 - d["edges"][0]["gen"]), "inconsistent"),
        (lambda d: d["edges"][0].update(gen=5), "generator labels"),
        (lambda d: d["vertices"].append(d["vertices"][2]), "vertices[5]: duplicates vertices[2]"),
        (lambda d: d["levels"][1].update(size=5), "levels[1].size: 5, want 2"),
        (lambda d: d["levels"][0].update(size="two"), "levels[0].size: 'two', want 1"),
        (lambda d: d["levels"][2].pop("size"), "levels[2].size"),
        (lambda d: d["levels"][2].update(x=d["levels"][1]["x"]), "levels[2].x: duplicates levels[1]"),
        # a step back down, and a zero step: generator steps that close a cycle of levels
        (lambda d: d["edges"].append({"from": 1, "to": 0, "gen": 2}), "edges: generator steps"),
        (lambda d: d["edges"].append({"from": 0, "to": 0, "gen": 2}), "edges: generator steps"),
    ],
)
def test_json_import_names_bad_field(edit, field):
    data = json.loads(json.dumps(pg.slice_to_json_dict(make_slice("5_1", "+1+2", 1))))
    edit(data)
    with pytest.raises(ValueError, match=re.escape(field)):
        pg.slice_from_json_dict(data)


def test_json_import_depth_of_long_chain():
    # 66 levels on a rank-1 chain: depth 65, past any fixed word-length cap
    n = 66
    data = {
        "levels": [{"x": [i], "size": 1} for i in range(n)],
        "vertices": [{"level": [i], "residues": [0]} for i in range(n)],
        "edges": [{"from": i, "to": i + 1, "gen": 0} for i in range(n - 1)],
    }
    assert pg.slice_from_json_dict(data).depth == 65


def test_json_import_rejects_unreachable_level():
    data = pg.slice_to_json_dict(make_slice("5_1", "+1+2", 1))
    data["levels"].append({"x": [5, 5], "size": 0})
    with pytest.raises(ValueError, match=re.escape("levels[3].x: [5, 5] is not reachable")):
        pg.slice_from_json_dict(data)


def test_json_shape():
    s = make_slice("5_1", "+1+2", 1)
    data = pg.slice_to_json_dict(s)
    assert list(data.keys()) == ["levels", "vertices", "edges"]
    assert data["levels"][0] == {"x": [0, 0], "size": 1}
    assert all(set(e) == {"from", "to", "gen"} for e in data["edges"])


def _dumped(s):
    return json.dumps(pg.slice_to_json_dict(s), indent=2) + "\n"


def test_slice_to_json_equals_json_dumps_on_built_slices():
    slices = [s for *_, s in bundled_slices()]
    assert any(not s.edges for s in slices)  # depth 0: "edges": []
    for s in slices:
        assert pg.slice_to_json(s) == _dumped(s)
    prod = pg.external_product([make_slice("5_1", "+1+2", 2), make_slice("tree3", "+1", 2)])
    assert pg.slice_to_json(prod) == _dumped(prod)


def test_writers_match_record_oracles_on_built_slices():
    slices = [s for *_, s in bundled_slices()]
    assert any(not s.edges for s in slices)  # depth 0
    prod = pg.external_product([make_slice("5_1", "+1+2", 2), make_slice("tree3", "+1", 2)])
    long = make_slice("tree3", "+1", 8)
    assert len(long.edges) == 9840 > 4 * pg.JSON_CHUNK
    for s in slices + [prod, long]:
        _assert_writers_match_records(s)


def test_writers_match_record_oracles_on_shuffled_slices():
    # levels and fibers out of order: a level's vertices are not contiguous
    rng = random.Random(10)
    for *_, s in bundled_slices():
        _assert_writers_match_records(_shuffled(s, rng))


def test_slice_to_json_splits_a_long_level_run_with_mixed_residue_lengths():
    n = 2 * pg.JSON_CHUNK + 5  # chunk boundaries fall inside the run over (1, -1)
    residues = [(i,) * (i % 4) + (-i,) for i in range(n)]
    vertices = (Vertex((0, 0), ()), *(Vertex((1, -1), r) for r in residues))
    edges = tuple((0, w, 0) for w in range(1, n + 1))
    s = pg.PGraphSlice(((1, -1),), 1, ((0, 0), (1, -1)), vertices, edges)
    assert len({len(r) for r in residues}) == 4
    assert pg.slice_to_json(s) == _dumped(s)
    _assert_writers_match_records(s)


def test_slice_to_json_sums_a_level_over_non_adjacent_runs():
    levels = ((0,), (1,), (2,))
    order = [(1, (0,)), (0, ()), (1, (1, 5)), (1, (2,)), (2, (0,)), (1, ()), (2, (1,))]
    vertices = tuple(Vertex((x,), r) for x, r in order)
    s = pg.PGraphSlice(((1,),), 2, levels, vertices, ((1, 0, 0), (1, 2, 0), (0, 4, 0)))
    assert pg.slice_to_json_dict(s)["levels"][1] == {"x": [1], "size": 4}
    assert pg.slice_to_json(s) == _dumped(s)
    _assert_writers_match_records(s)


@pytest.mark.parametrize(
    "data",
    [
        {  # residue lists of lengths 0, 1 and 2 in one slice
            "levels": [{"x": [0], "size": 1}, {"x": [1], "size": 2}],
            "vertices": [
                {"level": [0], "residues": []},
                {"level": [1], "residues": [-5]},
                {"level": [1], "residues": [1, 2]},
            ],
            "edges": [{"from": 0, "to": 1, "gen": 0}, {"from": 0, "to": 2, "gen": 0}],
        },
        {"levels": [{"x": [0, 0], "size": 0}], "vertices": [], "edges": []},
    ],
    ids=["uneven-residues", "no-vertices"],
)
def test_slice_to_json_equals_json_dumps_on_imported_slices(data):
    s = pg.slice_from_json_dict(data)
    assert pg.slice_to_json(s) == _dumped(s)
    assert json.loads(pg.slice_to_json(s)) == data
    _assert_writers_match_records(s)


def test_dot_deterministic():
    s = make_slice("5_1", "+1+2", 2)
    text = pg.slice_to_dot(s)
    assert text == pg.slice_to_dot(make_slice("5_1", "+1+2", 2))
    assert text.startswith("digraph pgraph {")
    assert '"L0,0@0,0"' in text
