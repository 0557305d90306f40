"""Acceptance suite: every criterion is exact (integer equality or an
explicit zero-violations count) and prints one pass/fail line."""

import functools
import random
from collections import Counter

from pgraphs import cone_semigroup as cs
from pgraphs import pgraph as pg
from pgraphs.cli import bundled_config_path, load_config
from pgraphs.coset_model import PadicModel, TreeModel
from pgraphs.flat_core import SubmultClass, module_delta, rho, scale, submultiplicativity_class

BUNDLED = ["example_5_1", "example_5_2", "example_5_3", "moller_tree", "coprime_2_3"]


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {n} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {n} ({label}): PASS")

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def bundled_model(name):
    model, _ = load_config(bundled_config_path(name))
    return model


@functools.lru_cache(maxsize=None)
def bundled_slice(name, pattern_text, depth):
    model = bundled_model(name)
    P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse(pattern_text))
    gens = cs.minimal_generators(P, 16)
    return pg.build_slice(P, gens, model, depth)


def semigroup_table(spec):
    table = {}
    for pattern in cs.enumerate_admissible(spec):
        P = cs.ConeSemigroup(spec, pattern)
        gens = cs.minimal_generators(P, 16)
        table[frozenset(pattern.j_plus)] = (
            set(gens.sigma),
            cs.scale_exponent_forms(spec, pattern),
        )
    return table


@criterion(1, "three-component semigroup table")
def test_criterion_1():
    spec = bundled_model("example_5_2").flat_spec()
    table = semigroup_table(spec)
    expected = {
        frozenset({1, 2, 3}): ({(1, 0), (0, 1)}, ((2, (2, 2)),)),
        frozenset({1, 2}): ({(1, 0), (1, -1)}, ((2, (2, 1)),)),
        frozenset({2, 3}): ({(-1, 1), (0, 1)}, ((2, (1, 2)),)),
        frozenset({1}): ({(1, -1), (0, -1)}, ((2, (1, 0)),)),
        frozenset({3}): ({(-1, 0), (-1, 1)}, ((2, (0, 1)),)),
        frozenset(): ({(-1, 0), (0, -1)}, ()),
    }
    assert table == expected


@criterion(2, "non-free semigroup table")
def test_criterion_2():
    spec = bundled_model("example_5_3").flat_spec()
    table = semigroup_table(spec)
    expected = {
        frozenset({1, 2}): ({(1, -1), (1, 0), (1, 1)}, ((2, (2, 0)),)),
        frozenset({1}): ({(-1, 1), (0, 1), (1, 1)}, ((2, (1, 1)),)),
        frozenset({2}): ({(-1, -1), (0, -1), (1, -1)}, ((2, (1, -1)),)),
        frozenset(): ({(-1, 1), (-1, 0), (-1, -1)}, ()),
    }
    assert table == expected
    assert all(len(sigma) == 3 for sigma, _ in table.values())


@criterion(3, "infeasible sign patterns")
def test_criterion_3():
    spec = bundled_model("example_5_2").flat_spec()
    for plus in [{1, 3}, {2}]:
        minus = {1, 2, 3} - plus
        result = cs.is_admissible(spec, cs.SignPattern.of(plus, minus))
        assert not result.admissible


@criterion(4, "fiber counts")
def test_criterion_4():
    s = bundled_slice("example_5_2", "+1+2+3", 2)
    assert len(s.fiber_at((1, 1))) == 16
    s = bundled_slice("example_5_3", "+1+2", 2)
    assert len(s.fiber_at((2, 0))) == 16
    s = bundled_slice("moller_tree", "+1", 4)
    assert len(s.fiber_at((4,))) == 81


@criterion(5, "common-descendant structure")
def test_criterion_5():
    for p in (2, 3):
        model = PadicModel(((p, (1, 0)), (p, (1, 1)), (p, (0, 1))))
        P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse("+1+2+3"))
        s = pg.build_slice(P, cs.minimal_generators(P, 16), model, 2)
        counts = Counter()
        for ai in s.fiber_at((1, 0)):
            for bi in s.fiber_at((0, 1)):
                counts[
                    pg.common_descendants(s, s.vertices[ai], s.vertices[bi], (1, 1))
                ] += 1
        assert counts == {p: p**3, 0: p**4 - p**3}
        assert pg.check_product_of_trees(s).status == pg.NOT_PRODUCT


@criterion(6, "property suite on bundled configs")
def test_criterion_6():
    for name in BUNDLED:
        spec = bundled_model(name).flat_spec()
        for pattern in cs.enumerate_admissible(spec):
            s = bundled_slice(name, str(pattern), 3)
            assert pg.check_rooted_strongly_simple(s).ok, (name, str(pattern))
            assert pg.check_factorization(s).ok, (name, str(pattern))
            assert pg.check_fiber_regularity(s).ok, (name, str(pattern))
            assert pg.check_regularity(s, 2).ok, (name, str(pattern))
    for name in ("example_5_1", "coprime_2_3"):
        spec = bundled_model(name).flat_spec()
        for pattern in cs.enumerate_admissible(spec):
            s = bundled_slice(name, str(pattern), 3)
            gens = cs.minimal_generators(cs.ConeSemigroup(spec, pattern), 16)
            assert pg.check_product_of_trees(s).is_product, (name, str(pattern))
            assert pg.predict_product_of_trees(spec, gens), (name, str(pattern))


@criterion(7, "quasi-lattice order")
def test_criterion_7():
    spec = bundled_model("example_5_3").flat_spec()
    P = cs.ConeSemigroup(spec, cs.SignPattern.parse("+1+2"))
    assert cs.minimal_common_upper_bounds(P, (1, 0), (1, -1)) == [(2, -1), (2, 0)]
    grid = cs.ConeSemigroup(
        bundled_model("example_5_1").flat_spec(), cs.SignPattern.parse("+1+2")
    )
    assert cs.minimal_common_upper_bounds(grid, (1, 0), (0, 1)) == [(1, 1)]


@criterion(8, "rooted-tree baseline and tree products")
def test_criterion_8():
    s = bundled_slice("moller_tree", "+1", 4)
    assert [len(s.fiber_at((i,))) for i in range(5)] == [1, 3, 9, 27, 81]
    preds = Counter(w for _, w, _ in s.edges)
    for i, v in enumerate(s.vertices):
        assert preds[i] == (0 if v.level == (0,) else 1)
    assert pg.check_rooted_strongly_simple(s).ok

    def tree_slice(d, depth):
        model = TreeModel((d,))
        P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse("+1"))
        return pg.build_slice(P, cs.minimal_generators(P, 8), model, depth)

    prod = pg.external_product([tree_slice(2, 2), tree_slice(3, 2)])
    for x in prod.levels:
        assert len(prod.fiber_at(x)) == 2 ** x[0] * 3 ** x[1]
    assert pg.check_rooted_strongly_simple(prod).ok


@criterion(9, "randomized scale invariants")
def test_criterion_9():
    violations = 0
    for name in BUNDLED:
        spec = bundled_model(name).flat_spec()
        rng = random.Random(f"acceptance-9-{name}")
        for _ in range(10_000):
            x = tuple(rng.randint(-10, 10) for _ in range(spec.rank))
            y = tuple(rng.randint(-10, 10) for _ in range(spec.rank))
            xy = tuple(a + b for a, b in zip(x, y))
            lhs, rhs = scale(spec, xy), scale(spec, x) * scale(spec, y)
            if lhs > rhs:
                violations += 1
            strict = any(
                a * b < 0 for a, b in zip(rho(spec, x), rho(spec, y))
            )
            if (lhs < rhs) != strict:
                violations += 1
            if submultiplicativity_class(spec, x, y) is not (
                SubmultClass.STRICT if strict else SubmultClass.EQUAL
            ):
                violations += 1
            if module_delta(spec, xy) != module_delta(spec, x) * module_delta(spec, y):
                violations += 1
    assert violations == 0


@criterion(10, "virtually a product of trees")
def test_criterion_10():
    s = bundled_slice("example_5_3", "+1+2", 4)
    report = pg.virtually_product_subsemigroup(s)
    assert report.q_generators == ((1, -1), (1, 1))
    assert report.rooted.ok
    assert report.square.is_product
