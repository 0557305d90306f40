import dataclasses
import json
import re
from functools import lru_cache

import networkx as nx
import pytest

from pgraphs import cone_semigroup as cs
from pgraphs import pgraph as pg
from pgraphs.coset_model import PadicModel, TreeModel, Vertex, preimage_count
from pgraphs.errors import LevelNotComparable, NotApplicable
from pgraphs.flat_core import scale

MODELS = {
    "5_1": PadicModel(((2, (1, 0)), (2, (0, 1)))),
    "5_2": PadicModel(((2, (1, 0)), (2, (1, 1)), (2, (0, 1)))),
    "5_3": PadicModel(((2, (1, 1)), (2, (1, -1)))),
    "coprime": PadicModel(((2, (1, 0)), (3, (0, 1)))),
    "tree3": TreeModel((3,)),
}


@lru_cache(maxsize=None)
def make_slice(model_key, pattern_text, depth):
    model = MODELS[model_key]
    spec = model.flat_spec()
    P = cs.ConeSemigroup(spec, cs.SignPattern.parse(pattern_text))
    gens = cs.minimal_generators(P, 16)
    return pg.build_slice(P, gens, model, depth)


def slice_digraph(s):
    g = nx.DiGraph()
    for i, v in enumerate(s.vertices):
        g.add_node(i, level=v.level)
    for u, w, gi in s.edges:
        g.add_edge(u, w, gen=gi)
    return g


# ---------------------------------------------------------------------------
# construction


def test_build_slice_levels_and_fibers():
    s = make_slice("5_1", "+1+2", 2)
    assert s.levels == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    sizes = {x: len(s.fiber_at(x)) for x in s.levels}
    assert sizes == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 4, (1, 1): 4, (0, 2): 4}


def test_build_slice_depth_zero():
    s = make_slice("5_2", "+1+2+3", 0)
    assert len(s.vertices) == 1 and not s.edges


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
    for s in [make_slice(*args) for args in CLEAN_SLICES] + _corrupted_slices():
        table = s.ancestor_table
        assert set(table) == {(x, y) for x in s.levels for y in s.reachable[x]}
        for (x, y), amap in table.items():
            word = s.gen_words(x, y)[0]
            walked = {w: s.walk_back(w, word) for w in s.fiber_at(y)}
            assert amap == {w: a for w, a in walked.items() if a is not None}
            assert all(s.ancestor(w, x) == a for w, a in walked.items())


def test_checks_match_word_walking_reference():
    for s in [make_slice(*args) for args in CLEAN_SLICES] + _corrupted_slices():
        ambiguous, factorization = _word_walking_checks(s)
        assert pg.check_factorization(s).witnesses == factorization
        rooted = pg.check_rooted_strongly_simple(s)
        if not any(w[0] in ("in_degree", "unreachable") for w in rooted.witnesses):
            assert rooted.witnesses == ambiguous


def test_swapped_sources_are_ambiguous():
    report = pg.check_rooted_strongly_simple(
        _swap_edge_sources(make_slice("5_3", "+1+2", 3), (2, 0))
    )
    assert not report.ok
    assert {w[0] for w in report.witnesses} == {"ambiguous"}


def test_level_cycle_not_applicable():
    s = pg.PGraphSlice(
        generators=((1,), (-1,)),
        depth=1,
        levels=((0,), (1,)),
        vertices=(Vertex((0,), ()), Vertex((1,), ())),
        edges=((0, 1, 0), (1, 0, 1)),
    )
    with pytest.raises(NotApplicable, match="cycle"):
        s.reachable


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
    s = make_slice("5_2", "+1+2+3", 2)
    w = s.fiber_at((1, 1))[3]
    target = s.vertices[w]
    source = s.vertices[s.ancestor(w, (1, 0))]
    m = pg.morphism(s, source, target)
    assert m is not None and m.degree == (0, 1)
    other = next(v for v in s.fiber_at((1, 0)) if s.vertices[v] != source)
    assert pg.morphism(s, s.vertices[other], target) is None


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


# ---------------------------------------------------------------------------
# regularity of descendant cones


def test_regularity_passes():
    assert pg.check_regularity(make_slice("5_2", "+1+2+3", 3), 2).ok
    assert pg.check_regularity(make_slice("5_2", "+1+2+3", 2), 0).ok
    assert pg.check_regularity(make_slice("5_3", "+1+2", 3), 1).ok


def test_regularity_of_tree_product():
    t2 = make_slice_tree((2, 3), 2)
    assert pg.check_regularity(t2, 1).ok


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
    assert pg.common_descendants(s, root, b, (1, 1)) == preimage_count(
        MODELS["5_2"], (0, 1), (1, 1)
    )
    with pytest.raises(LevelNotComparable):
        pg.common_descendants(s, a, b, (1, 0))


# ---------------------------------------------------------------------------
# products of trees


def test_product_of_trees_statuses():
    assert pg.check_product_of_trees(make_slice("5_1", "+1+2", 2)).is_product
    result = pg.check_product_of_trees(make_slice("5_2", "+1+2+3", 2))
    assert result.status == pg.NOT_PRODUCT and result.witness is not None
    assert pg.check_product_of_trees(make_slice("coprime", "+1+2", 2)).is_product
    assert pg.check_product_of_trees(make_slice("5_3", "+1+2", 2)).status == pg.NOT_FREE


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


def test_external_product_rejects_bad_factor():
    bad = _retarget_edge_target(make_slice("5_2", "+1+2+3", 2))
    with pytest.raises(NotApplicable):
        pg.external_product([bad])


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
    ],
)
def test_json_import_names_bad_field(edit, field):
    data = json.loads(json.dumps(pg.slice_to_json_dict(make_slice("5_1", "+1+2", 1))))
    edit(data)
    with pytest.raises(ValueError, match=re.escape(field)):
        pg.slice_from_json_dict(data)


def test_json_shape():
    s = make_slice("5_1", "+1+2", 1)
    data = pg.slice_to_json_dict(s)
    assert list(data.keys()) == ["levels", "vertices", "edges"]
    assert data["levels"][0] == {"x": [0, 0], "size": 1}
    assert all(set(e) == {"from", "to", "gen"} for e in data["edges"])


def test_dot_deterministic():
    s = make_slice("5_1", "+1+2", 2)
    text = pg.slice_to_dot(s)
    assert text == pg.slice_to_dot(make_slice("5_1", "+1+2", 2))
    assert text.startswith("digraph pgraph {")
    assert '"L0,0@0,0"' in text
