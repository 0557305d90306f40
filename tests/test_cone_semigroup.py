import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import comb, gcd
from operator import add, ge, sub
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pgraphs import _intlinalg as la
from pgraphs import cli
from pgraphs import cone_semigroup as cs
from pgraphs.errors import CertificationFailed, KernelNotTrivial, NotApplicable, NotInSemigroup
from pgraphs.flat_core import make_spec, rho, scale, uniscalar_kernel
from test_intlinalg import fraction_min_norm_point

SPEC_5_1 = make_spec([(1, 0), (0, 1)], [2, 2])
SPEC_5_2 = make_spec([(1, 0), (1, 1), (0, 1)], [2, 2, 2])
SPEC_5_3 = make_spec([(1, 1), (1, -1)], [2, 2])
BUNDLED = ["example_5_1", "example_5_2", "example_5_3", "coprime_2_3", "moller_tree"]


def P(spec, text):
    return cs.ConeSemigroup(spec, cs.SignPattern.parse(text))


def brute_cone_points(P_, radius):
    return [
        x
        for x in product(range(-radius, radius + 1), repeat=P_.spec.rank)
        if P_.contains(x)
    ]


def full_patterns(spec):
    q = spec.components
    for bits in product((False, True), repeat=q):
        plus = {j + 1 for j in range(q) if bits[j]}
        yield cs.SignPattern.of(plus, set(range(1, q + 1)) - plus)


def admissible_by_exhaustion(spec):
    """The 2^q filter the chamber walk replaced: every full pattern put to
    Gordan's test, lexicographic on sorted J+."""
    found = [p for p in full_patterns(spec) if cs.is_admissible(spec, p).admissible]
    return sorted(found, key=lambda p: tuple(sorted(p.j_plus)))


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def minimal_points_by_compositions(flipped, base, first, last):
    """The walk `_minimal_points` replaced: every image base + offset, the
    offsets the compositions of each layer first..last in N^q, with a full
    solve F u = v.  The dominance test comes before the solve here; a
    dominated image is refused either way, so the result is the same."""
    kept = []
    for m in range(first, last + 1):
        for off in compositions(m, len(base)):
            v = tuple(map(add, base, off))
            if any(all(map(ge, v, w)) for w, _ in kept):
                continue
            sol = la.solve_scaled(flipped, v)
            if sol is not None and not any(c % sol[1] for c in sol[0]):
                kept.append((v, tuple(c // sol[1] for c in sol[0])))
    return kept


def random_cones(seed, count):
    """Seeded random specs, alternating rank 2 (weights in -2..2, 2 or 3
    rows) and rank 3 (weights in -1..1, 3 or 4 rows), each with one of its
    admissible patterns.  Rows are nonzero and the kernel is trivial."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        rank = 2 + len(cones) % 2
        w = 2 if rank == 2 else 1
        rows = [
            tuple(rng.randint(-w, w) for _ in range(rank))
            for _ in range(rng.randint(rank, rank + 1))
        ]
        if not all(any(r) for r in rows):
            continue
        spec = make_spec(rows, [2] * len(rows))
        if not uniscalar_kernel(spec):
            cones.append((spec, str(rng.choice(cs.enumerate_admissible(spec)))))
    return cones


# repro specs: an admissible witness far outside any small box, and an
# extreme ray (10,1) whose layer norm 17 exceeds the default bound
SPEC_FAR_WITNESS = make_spec([(1, -100), (-1, 101)], [2, 2])
SPEC_STEEP_RAY = make_spec([(1, 0), (0, 7), (1, -10)], [2, 2, 2])


# ---------------------------------------------------------------------------
# sign patterns and membership


def test_pattern_parse_and_format():
    p = cs.SignPattern.parse("+1+2-3")
    assert p.j_plus == {1, 2} and p.j_minus == {3}
    assert str(p) == "+1+2-3"
    assert str(cs.SignPattern.parse("-3+1+2")) == "+1+2-3"
    with pytest.raises(ValueError):
        cs.SignPattern.parse("1,2")
    with pytest.raises(ValueError):
        cs.SignPattern.of({1}, {1})


def test_contains_examples():
    assert P(SPEC_5_3, "+1+2").contains((1, -1))  # rho = (0, 2)
    assert P(SPEC_5_3, "+1+2").contains((0, 0))
    assert not P(SPEC_5_2, "+1+2-3").contains((1, 1))  # rho_3 = 1 > 0


@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_cone_closed_under_addition(x, y):
    cone = P(SPEC_5_3, "+1+2")
    if cone.contains(x) and cone.contains(y):
        assert cone.contains(tuple(a + b for a, b in zip(x, y)))


def test_cone_refuses_a_pattern_that_misses_or_exceeds_the_components():
    with pytest.raises(NotApplicable, match=r"^pattern \+1\+2 does not cover all 3 components$"):
        P(SPEC_5_2, "+1+2")
    with pytest.raises(NotApplicable, match=r"^pattern \+1-2\+3\+4 names component 4, but "
                                            r"the spec has 3$"):
        P(SPEC_5_2, "+1-2+3+4")
    # an index out of range is named even when the pattern also misses one
    with pytest.raises(NotApplicable, match=r"^pattern \+1\+2\+5\+6 names component 5, but "
                                            r"the spec has 3$"):
        P(SPEC_5_2, "+1+2+5+6")
    with pytest.raises(NotApplicable, match="does not cover"):
        cs.ConeSemigroup(SPEC_5_3, cs.SignPattern.of((), ()))


@pytest.mark.parametrize("name", BUNDLED)
def test_cone_reads_the_pattern_as_defined(name):
    # oracle: rho_j >= 0 on J+ and rho_j <= 0 on J-, from flat_core.rho
    spec = cli.load_config(cli.bundled_config_path(name))[0].flat_spec()
    for pattern in cs.enumerate_admissible(spec):
        cone = cs.ConeSemigroup(spec, pattern)
        assert cone.flipped_rows is cone.flipped_rows
        for x in product(range(-4, 5), repeat=spec.rank):
            r = rho(spec, x)
            inside = all(r[j - 1] >= 0 for j in pattern.j_plus) and all(
                r[j - 1] <= 0 for j in pattern.j_minus
            )
            assert cone.contains(x) == inside, (name, str(pattern), x)
            assert cone.flipped_rho(x) == tuple(
                -c if j in pattern.j_minus else c for j, c in enumerate(r, start=1)
            )


# ---------------------------------------------------------------------------
# admissibility


def assert_witness(rows, witness):
    """An admitted pattern's witness is primitive and strictly positive on
    every flipped row."""
    assert gcd(*witness) == 1 and all(la.dot(row, witness) > 0 for row in rows), (rows, witness)


def test_admissibility_exact_infeasible():
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({1, 3}, {2}))
    assert not res.admissible and res.witness is None
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({2}, {1, 3}))
    assert not res.admissible and res.witness is None


def test_admissibility_witness_strict():
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({1, 2}, {3}))
    assert res.admissible
    r = rho(SPEC_5_2, res.witness)
    assert r[0] > 0 and r[1] > 0 and r[2] < 0


def test_admissibility_all_minus():
    res = cs.is_admissible(SPEC_5_1, cs.SignPattern.of((), {1, 2}))
    assert res.witness == (-1, -1)


def test_admissibility_far_witness():
    # a (2r+1)^k box search of radius 8*rank missed +1+2 here
    res = cs.is_admissible(SPEC_FAR_WITNESS, cs.SignPattern.parse("+1+2"))
    assert res.witness == (201, 2)
    assert [str(p) for p in cs.enumerate_admissible(SPEC_FAR_WITNESS)] == [
        "-1-2", "+1-2", "+1+2", "-1+2",
    ]


def test_admissible_witnesses_strict_on_all_rows():
    specs = [SPEC_5_1, SPEC_5_2, SPEC_5_3, SPEC_FAR_WITNESS, SPEC_STEEP_RAY]
    specs += [spec for spec, _ in random_cones(17, 20)]
    for spec in specs:
        for pattern in cs.enumerate_admissible(spec):
            rows = cs.ConeSemigroup(spec, pattern).flipped_rows
            assert_witness(rows, cs.is_admissible(spec, pattern).witness)


def test_inadmissible_patterns_have_no_box_witness():
    specs = [SPEC_5_1, SPEC_5_2, SPEC_5_3, SPEC_STEEP_RAY]
    specs += [spec for spec, _ in random_cones(17, 20)]
    inadmissible = 0
    for spec in specs:
        for pattern in full_patterns(spec):
            if cs.is_admissible(spec, pattern).admissible:
                continue
            inadmissible += 1
            flipped = cs.ConeSemigroup(spec, pattern).flipped_rows
            for x in product(range(-6, 7), repeat=spec.rank):
                assert not all(sum(a * b for a, b in zip(row, x)) > 0 for row in flipped)
    assert inadmissible > 0


def test_is_admissible_decides_each_pattern_once():
    pattern = cs.SignPattern.parse("+1-2+3")
    first = cs.is_admissible(SPEC_5_2, pattern)
    assert cs.is_admissible(SPEC_5_2, pattern) is first
    equal_spec = make_spec([(1, 0), (1, 1), (0, 1)], [2, 2, 2])
    assert cs.is_admissible(equal_spec, cs.SignPattern.parse("+1-2+3")) is first


def bundled_specs():
    """The flat specs of the packaged configs, and the rank-2 q = 4 and
    q = 5 generator-search rungs: (1,0), (0,1) and copies of (1,1)."""
    specs = [cli.load_config(cli.bundled_config_path(n))[0].flat_spec() for n in BUNDLED]
    return specs + [make_spec([(1, 0), (0, 1)] + [(1, 1)] * c, [2] * (c + 2)) for c in (2, 3)]


def assert_certificate(spec, pattern, certificate):
    """Re-check a refusal's Gordan certificate from the spec's own rows:
    lam >= 0, sum(lam) = d > 0 and sum lam_j (sign_j row_j) = 0."""
    lam, d = certificate
    signs = [1 if j + 1 in pattern.j_plus else -1 for j in range(spec.components)]
    assert len(lam) == spec.components and all(c >= 0 for c in lam)
    assert sum(lam) == d > 0
    for i in range(spec.rank):
        assert sum(c * s * row[i] for c, s, row in zip(lam, signs, spec.weights)) == 0


def test_simplex_decides_as_min_norm_point_on_every_bundled_pattern():
    refused = 0
    for spec in bundled_specs():
        for pattern in full_patterns(spec):
            res = cs.is_admissible(spec, pattern)
            rows = cs.ConeSemigroup(spec, pattern).flipped_rows
            p = fraction_min_norm_point(rows)
            assert res.admissible == any(p), (spec.weights, str(pattern))
            if res.admissible:
                assert res.certificate is None
                assert_witness(rows, res.witness)
            else:
                assert res.witness is None
                assert_certificate(spec, pattern, res.certificate)
                refused += 1
    # example_5_2 refuses 2 of 8 patterns, the rungs 10 of 16 and 26 of 32,
    # and the other specs admit every pattern
    assert refused == 2 + 10 + 26
    # the dual of the phase-1 basis, not the min-norm direction (1, 0)
    assert cs.is_admissible(SPEC_5_3, cs.SignPattern.parse("+1+2")).witness == (2, -1)


@given(st.data())
def test_simplex_decides_as_min_norm_point_on_degenerate_specs(data):
    # rows that repeat, scale or negate an earlier row put several rows on
    # one line through 0, which makes the start bases more degenerate
    rank = data.draw(st.integers(1, 3), label="rank")
    nonzero = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    rows = data.draw(st.lists(nonzero, min_size=1, max_size=3), label="rows")
    for i, m in data.draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from((-2, -1, 1, 2))),
                                   max_size=3), label="copies"):
        rows.append(tuple(m * c for c in rows[i % len(rows)]))
    spec = make_spec(rows, [2] * len(rows))
    for pattern in full_patterns(spec):
        res = cs.is_admissible(spec, pattern)
        rows = cs.ConeSemigroup(spec, pattern).flipped_rows
        assert res.admissible == any(fraction_min_norm_point(rows))
        if res.admissible:
            assert_witness(rows, res.witness)
        else:
            assert res.witness is None
            assert_certificate(spec, pattern, res.certificate)


def random_draw(rank, q):
    """Rows drawn uniformly from [-3, 3]^rank, zero rows redrawn, all
    scales 2: the admissibility ladder of the benchmark records."""
    rng = random.Random(f"7:{rank}:{q}")
    rows = []
    while len(rows) < q:
        row = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(row):
            rows.append(row)
    return make_spec(rows, [2] * q)


def test_chamber_walk_on_the_rank3_q10_draw_matches_the_proved_filter():
    # the 2^q filter is the oracle, and each of its 1024 decisions is
    # proved on its own: a refusal by its certificate, an admission by a
    # strict witness
    spec = random_draw(3, 10)
    cs.is_admissible.cache_clear()
    walked = cs.enumerate_admissible(spec)
    assert cs.is_admissible.cache_info().misses == 449
    assert len(walked) == 80
    assert walked == admissible_by_exhaustion(spec)
    for pattern in full_patterns(spec):
        res = cs.is_admissible(spec, pattern)
        if res.admissible:
            assert_witness(cs.ConeSemigroup(spec, pattern).flipped_rows, res.witness)
        else:
            assert_certificate(spec, pattern, res.certificate)


def test_the_cli_and_the_searches_never_compute_a_witness(monkeypatch, capsys):
    calls = []
    gordan_witness = la.gordan_witness

    def counted(points):
        calls.append(points)
        return gordan_witness(points)

    monkeypatch.setattr(cs._intlinalg, "gordan_witness", counted)
    cs.is_admissible.cache_clear()
    cs.enumerate_admissible(random_draw(3, 10))
    for spec in bundled_specs():
        for pattern in cs.enumerate_admissible(spec):
            cs.minimal_generators(cs.ConeSemigroup(spec, pattern))
    for name in BUNDLED:
        assert cli.main(["semigroups", str(cli.bundled_config_path(name))]) == 0
    capsys.readouterr()
    assert calls == [] and cs.is_admissible.cache_info().misses > 449
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.parse("+1+2+3"))
    assert res.witness == (1, 1) and res.witness == (1, 1)
    assert len(calls) == 1  # computed when first read, then kept


def test_enumerate_admissible_counts():
    pats_2 = cs.enumerate_admissible(SPEC_5_2)
    assert [tuple(sorted(p.j_plus)) for p in pats_2] == [
        (), (1,), (1, 2), (1, 2, 3), (2, 3), (3,),
    ]
    pats_3 = cs.enumerate_admissible(SPEC_5_3)
    assert [tuple(sorted(p.j_plus)) for p in pats_3] == [(), (1,), (1, 2), (2,)]
    assert len(cs.enumerate_admissible(SPEC_5_1)) == 4


def random_arrangement_specs(seed, count):
    """Seeded random specs of rank 1 to 3 with 1 to 8 rows in -3..3: about
    half the rows repeat, scale or negate an earlier row, and every third
    spec draws its rows from a plane of Z^3, so its uniscalar kernel is
    nontrivial."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        rank, q = rng.randint(1, 3), rng.randint(1, 8)
        plane = len(specs) % 3 == 2
        if plane:
            rank = 3
        rows = []
        while len(rows) < q:
            if rows and rng.random() < 0.5:
                row = tuple(rng.choice((-2, -1, 1, 2)) * c for c in rng.choice(rows))
            elif plane:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                row = (a, b, a - b)
            else:
                row = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(row):
                rows.append(row)
        specs.append(make_spec(rows, [2] * q))
    return specs


def test_enumerate_admissible_matches_the_exhaustive_filter():
    specs = [SPEC_5_1, SPEC_5_2, SPEC_5_3, SPEC_FAR_WITNESS, SPEC_STEEP_RAY]
    specs += [make_spec([(1, 0), (0, 1)] + [(1, 1)] * 3, [2] * 5),
              make_spec([(1,), (-2,), (3,), (1,)], [2] * 4),
              make_spec([(1, 1, 0), (-2, -2, 0), (0, 0, 1), (1, 1, 1)], [2] * 4)]
    specs += random_arrangement_specs(5, 60)
    assert any(uniscalar_kernel(spec) for spec in specs)
    for spec in specs:
        walked = cs.enumerate_admissible(spec)
        assert walked == admissible_by_exhaustion(spec), spec
        for pattern in walked:
            rows = cs.ConeSemigroup(spec, pattern).flipped_rows
            assert_witness(rows, cs.is_admissible(spec, pattern).witness)


def test_chamber_walk_tests_seven_patterns_on_the_rank2_q5_rung():
    # three groups of rows, (1,0), (0,1) and three times (1,1): the walk
    # tests the 2^3 - 1 group sign vectors other than its start, the
    # exhaustive filter all 2^5 patterns
    spec = make_spec([(1, 0), (0, 1)] + [(1, 1)] * 3, [2] * 5)
    cs.is_admissible.cache_clear()
    patterns = cs.enumerate_admissible(spec)
    assert cs.is_admissible.cache_info().misses == 7
    cs.is_admissible.cache_clear()
    assert admissible_by_exhaustion(spec) == patterns
    assert cs.is_admissible.cache_info().misses == 32


def test_walk_asks_for_the_simplex_points_in_bar_order(monkeypatch):
    # the second row repeats the first, so the basis is rows 0, 2, ..., k
    asked = []

    def record(self, b):
        asked.append(b)
        return None

    monkeypatch.setattr(cs._intlinalg.ImageSolver, "preimage", record)
    for k in (1, 2, 3):
        unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        flipped = tuple(unit[:1] + [tuple(2 * c for c in unit[0])] + unit[1:])
        basis = [0] + list(range(2, k + 1))
        for base in ((0,) * (k + 1), tuple(range(k + 1, 0, -1))):
            asked.clear()
            assert cs._minimal_points(flipped, k, base, 8) == []
            want = [
                tuple(base[i] + c for i, c in zip(basis, t))
                for t in product(range(9), repeat=k)
                if sum(t) <= 8
            ]
            assert asked == want


def test_simplex_walk_matches_the_composition_walk():
    rng = random.Random(13)
    cones = random_cones(13, 40)
    for spec, text in cones:
        flipped = P(spec, text).flipped_rows
        q = spec.components
        for base in ((0,) * q, tuple(rng.randint(0, 3) for _ in range(q))):
            last = min(cs._search_depth(flipped, spec.rank, base), 9)
            got = cs._minimal_points(flipped, spec.rank, base, last)
            assert got == minimal_points_by_compositions(flipped, base, 0, last), (
                spec.weights, text, base)
    assert {spec.rank for spec, _ in cones} == {2, 3}


# ---------------------------------------------------------------------------
# minimal generators


def test_minimal_generators_tables():
    g = cs.minimal_generators(P(SPEC_5_3, "+1+2"), 16)
    assert g.sigma == ((1, -1), (1, 0), (1, 1))
    assert g.sigma_plus == g.sigma and not g.sigma_zero and not g.sigma_minus

    g = cs.minimal_generators(P(SPEC_5_2, "-1+2+3"), 16)
    assert g.sigma == ((-1, 1), (0, 1))

    g = cs.minimal_generators(P(SPEC_5_1, "+1+2"), 16)
    assert g.sigma == ((0, 1), (1, 0))


def test_minimal_generators_partition():
    g = cs.minimal_generators(P(SPEC_5_2, "+1+2-3"), 16)
    assert g.sigma == ((1, -1), (1, 0))
    assert g.sigma_plus == ((1, 0),)  # rho = (1,1,0)
    assert g.sigma_zero == ((1, -1),)  # rho = (1,0,-1), mixed
    assert tuple(sorted(g.sigma_plus + g.sigma_zero + g.sigma_minus)) == g.sigma


def test_minimal_generators_bound_independent():
    for text in ("+1+2", "+1-2", "-1+2", "-1-2"):
        a = cs.minimal_generators(P(SPEC_5_3, text), 16)
        b = cs.minimal_generators(P(SPEC_5_3, text), 24)
        assert a.sigma == b.sigma


@pytest.mark.parametrize(
    "spec,text",
    [
        (SPEC_5_1, "+1+2"),
        (SPEC_5_2, "+1+2+3"),
        (SPEC_5_2, "+1-2-3"),
        (SPEC_5_3, "+1+2"),
        (SPEC_5_3, "-1+2"),
    ]
    + random_cones(2026, 12),
)
def test_minimal_generators_against_brute_force(spec, text):
    cone = P(spec, text)
    g = cs.minimal_generators(cone, 16)
    # oracle: minimal cone points in the flipped order, candidates from a
    # small box, dominators from a larger one
    candidates = [x for x in brute_cone_points(cone, 3) if any(x)]
    dominators = [x for x in brute_cone_points(cone, 6) if any(x)]
    minimal = []
    for x in candidates:
        fx = cone.flipped_rho(x)
        dominated = any(
            w != x and all(a <= b for a, b in zip(cone.flipped_rho(w), fx))
            for w in dominators
        )
        if not dominated:
            minimal.append(x)
    assert sorted(minimal) == list(g.sigma)


def test_generators_not_sums_of_cone_points():
    cone = P(SPEC_5_3, "+1+2")
    g = cs.minimal_generators(cone, 16)
    points = [x for x in brute_cone_points(cone, 4) if any(x)]
    for s in g.sigma:
        for u in points:
            v = tuple(a - b for a, b in zip(s, u))
            assert not (any(v) and cone.contains(v) and any(u))


def test_minimal_generators_errors():
    degenerate = make_spec([(1, 0), (1, 0)], [2, 2])
    with pytest.raises(KernelNotTrivial):
        cs.minimal_generators(P(degenerate, "+1+2"), 8)
    with pytest.raises(CertificationFailed):
        cs.minimal_generators(P(SPEC_5_3, "+1+2"), 1)


def test_minimal_generators_steep_ray():
    # the extreme rays are (1,0) and (10,1), with layer norms 2 and 17
    cone = P(SPEC_STEEP_RAY, "+1+2+3")
    with pytest.raises(CertificationFailed, match=r"\b19\b") as info:
        cs.minimal_generators(cone, 16)
    assert info.value.norm_bound == 16
    g = cs.minimal_generators(cone, 19)
    assert g.sigma == ((1, 0), (10, 1))
    assert g.certified_layer == 19 and g.max_layer == 17


def test_scale_multiplicative_on_cones():
    rng = random.Random(7)
    for spec in (SPEC_5_1, SPEC_5_2, SPEC_5_3):
        for pattern in cs.enumerate_admissible(spec):
            cone = cs.ConeSemigroup(spec, pattern)
            gens = cs.minimal_generators(cone, 16).sigma

            def combo():
                coeffs = [rng.randint(0, 3) for _ in gens]
                return tuple(
                    sum(c * g[i] for c, g in zip(coeffs, gens))
                    for i in range(spec.rank)
                )

            for _ in range(50):
                x, y = combo(), combo()
                assert cone.contains(x) and cone.contains(y)
                xy = tuple(a + b for a, b in zip(x, y))
                assert scale(spec, xy) == scale(spec, x) * scale(spec, y)


def test_all_minus_pattern_has_trivial_scale():
    cone = P(SPEC_5_2, "-1-2-3")
    for x in brute_cone_points(cone, 4):
        assert scale(SPEC_5_2, x) == 1


# ---------------------------------------------------------------------------
# maximality and extension


def test_extension_closure():
    cone = P(SPEC_5_3, "+1+2")
    assert cone.contains((2, 0))
    assert cone.contains((0, 0))
    assert not cone.contains((0, 1))  # rho = (1,-1)


def test_absorption_steps():
    cone = P(SPEC_5_2, "+1+2+3")
    witness = cs.is_admissible(SPEC_5_2, cone.pattern).witness
    assert witness == (1, 1)
    assert cs.absorption_steps(cone, (-3, 1), witness) == 3
    assert cs.absorption_steps(cone, (0, 0), witness) == 0


def test_absorption_steps_checks_cone_membership():
    # n = 2 clears the negative components, but (2,-2) has rho_3 = -2 < 0
    cone = P(SPEC_5_2, "+1+2+3")
    with pytest.raises(NotApplicable, match="does not absorb"):
        cs.absorption_steps(cone, (-2, 0), (2, -1))
    # the check is no assert: it also refuses under python -O
    code = (
        "from pgraphs import cone_semigroup as cs\n"
        "from pgraphs.errors import NotApplicable\n"
        "from pgraphs.flat_core import make_spec\n"
        "spec = make_spec([(1, 0), (1, 1), (0, 1)], [2, 2, 2])\n"
        "cone = cs.ConeSemigroup(spec, cs.SignPattern.parse('+1+2+3'))\n"
        "try:\n"
        "    print(cs.absorption_steps(cone, (-2, 0), (2, -1)))\n"
        "except NotApplicable:\n"
        "    print('refused')\n"
    )
    src = os.path.dirname(os.path.dirname(cs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.stdout == "refused\n", proc.stderr


def test_absorption_steps_refusals():
    # +1+2-3 flips row (1, 1), and the flipped rows sum to 0: no indicator
    spec = make_spec([(1, 0), (0, 1), (1, 1)], [2, 2, 2])
    with pytest.raises(NotApplicable, match=r"^pattern .* has no indicator element$"):
        cs.absorption_steps(P(spec, "+1+2-3"), (0, 0))
    # y = (-1, 0) is negative on row 1, where the indicator (0, 1) is 0
    with pytest.raises(NotApplicable, match="^indicator element is not strictly expanding$"):
        cs.absorption_steps(P(spec, "+1+2+3"), (-1, 0), (0, 1))


def test_check_maximality():
    # the default indicator absorbs every y of the box |y|_inf <= 4 in the
    # fewest steps, and y, -y both in the cone only for rho(y) = 0
    box = list(product(range(-4, 5), repeat=2))
    assert len(box) == 81
    cones = [P(SPEC_5_2, "+1+2+3")] + [P(SPEC_5_3, t) for t in ("+1+2", "+1-2", "-1+2", "-1-2")]
    for cone in cones:
        w = cs.is_admissible(cone.spec, cone.pattern).witness
        for y in box:
            n = cs.absorption_steps(cone, y)
            assert cone.contains(tuple(a + n * b for a, b in zip(y, w)))
            assert n == 0 or not cone.contains(tuple(a + (n - 1) * b for a, b in zip(y, w)))
            if cone.contains(y) and cone.contains(tuple(-a for a in y)):
                assert not any(rho(cone.spec, y))


# ---------------------------------------------------------------------------
# quasi-lattice order


def test_minimal_common_upper_bounds_examples():
    cone = P(SPEC_5_3, "+1+2")
    assert cs.minimal_common_upper_bounds(cone, (1, 0), (1, -1)) == [(2, -1), (2, 0)]
    assert cs.minimal_common_upper_bounds(cone, (1, 1), (1, 1)) == [(1, 1)]
    grid = P(SPEC_5_1, "+1+2")
    assert cs.minimal_common_upper_bounds(grid, (1, 0), (0, 1)) == [(1, 1)]


def test_minimal_common_upper_bounds_brute_force():
    cone = P(SPEC_5_3, "+1+2")
    a, b = (1, 0), (1, -1)
    ubs = [
        u
        for u in product(range(-6, 7), repeat=2)
        if cone.contains(tuple(x - y for x, y in zip(u, a)))
        and cone.contains(tuple(x - y for x, y in zip(u, b)))
    ]
    minimal = sorted(
        u
        for u in ubs
        if not any(
            w != u and cone.contains(tuple(x - y for x, y in zip(u, w))) for w in ubs
        )
    )
    assert minimal == cs.minimal_common_upper_bounds(cone, a, b)


def test_minimal_common_upper_bounds_needed_bound():
    # (-7,0) is minimal but lies 10 above base in its first flipped component
    cone = P(make_spec([(-4, -2), (-1, 3)], [2, 2]), "+1+2")
    a, b = (-4, -1), (-1, 2)
    with pytest.raises(CertificationFailed, match=r"\b21\b"):
        cs.minimal_common_upper_bounds(cone, a, b, 8)
    assert cs.minimal_common_upper_bounds(cone, a, b, 21) == [(-7, 0), (-5, 1)]
    # base (1,1,1) is not an image: the vertex (1,1) adds 1 to the ray bound 4
    with pytest.raises(CertificationFailed, match=r"\b5\b"):
        cs.minimal_common_upper_bounds(P(SPEC_5_2, "+1+2+3"), (1, 0), (0, 1), 4)


def test_minimal_common_upper_bounds_random_brute_force():
    rng = random.Random(5)
    results = []
    for spec, text in random_cones(5, 20):
        if spec.rank != 2:
            continue
        cone = P(spec, text)
        points = [x for x in brute_cone_points(cone, 3) if any(x)]
        for _ in range(3):
            a, b = rng.choice(points), rng.choice(points)
            # upper bounds in a large box, by increasing layer norm; one is
            # minimal when no smaller minimal one lies below it
            ubs = sorted(
                (sum(fu), fu, u)
                for u in product(range(-20, 21), repeat=2)
                if cone.contains(tuple(x - y for x, y in zip(u, a)))
                and cone.contains(tuple(x - y for x, y in zip(u, b)))
                for fu in [cone.flipped_rho(u)]
            )
            minimal = []
            for _, fu, u in ubs:
                if not any(all(c <= d for c, d in zip(fw, fu)) for fw, _ in minimal):
                    minimal.append((fu, u))
            result = cs.minimal_common_upper_bounds(cone, a, b, 64)
            assert sorted(u for _, u in minimal) == result
            results.append(len(result))
    assert max(results) >= 2


def test_both_searches_share_one_depth():
    # base 0: the only vertex of Q is 0, so the depth is the ray bound
    for spec, text in [(SPEC_5_2, "+1+2+3"), (SPEC_STEEP_RAY, "+1+2+3")] + random_cones(11, 6):
        cone = P(spec, text)
        flipped = cone.flipped_rows
        depth = cs._search_depth(flipped, spec.rank, (0,) * spec.components)
        assert depth == cs._ray_bound(flipped, spec.rank)
        assert cs.minimal_generators(cone, depth).certified_layer == depth
    # a common upper bound of 0 and 0 is 0 itself, at offset 0
    assert cs.minimal_common_upper_bounds(P(SPEC_5_3, "+1+2"), (0, 0), (0, 0)) == [(0, 0)]


def search_depth_by_vertices(flipped, rank, base):
    """`_search_depth` with its vertex loop run for every base, 0 too:
    the largest feasible vertex layer, floored, plus the ray bound."""
    top, top_d = 0, 1
    for tight in combinations(range(len(flipped)), rank):
        sol = la.solve_scaled([flipped[i] for i in tight], [base[i] for i in tight])
        if sol is None:
            continue
        y, d = sol
        images = [la.dot(r, y) for r in flipped]
        if all(a >= d * c for a, c in zip(images, base)) and sum(images) * top_d > top * d:
            top, top_d = sum(images), d
    return top // top_d + cs._ray_bound(flipped, rank) - sum(base)


def test_search_depth_at_base_zero_skips_only_the_vertex_solves():
    rng = random.Random(17)
    cones = random_cones(17, 30)
    for spec, text in cones:
        flipped = P(spec, text).flipped_rows
        q = spec.components
        for base in ((0,) * q, tuple(rng.randint(0, 3) for _ in range(q))):
            want = search_depth_by_vertices(flipped, spec.rank, base)
            assert cs._search_depth(flipped, spec.rank, base) == want, (spec.weights, text, base)
    assert {spec.rank for spec, _ in cones} == {2, 3}


def route_counts(cone):
    """(extreme rays, parallelepiped points) that the ray route lists as
    candidates for a cone's Hilbert basis."""
    rank, flipped = cone.spec.rank, cone.flipped_rows
    rays = tuple(r for r, _ in cs._extreme_rays(flipped, rank))
    fan = cs._simplicial_fan(rays, flipped, rank)
    return len(rays), sum(len(cs._parallelepiped_points(c)) for c in fan)


def test_searches_solve_a_pinned_number_of_images(monkeypatch):
    # The benchmark's preimage call count and hit ratio measure the walk's
    # work only while the solver is asked the same questions in the same
    # order; pin both on the smoke qlo pair, whatever kernel answers them.
    # The walk asks one question per point of the simplex
    # {t in N^k : sum(t) <= depth}.  The generator search asks none: on
    # the rank2_q5 ladder rung its candidates are the 12 extreme rays of
    # 6 unimodular cones, which have no other parallelepiped points.
    counts = {"calls": 0, "hits": 0}
    preimage = cs._intlinalg.ImageSolver.preimage

    def counted(self, b):
        x = preimage(self, b)
        counts["calls"] += 1
        counts["hits"] += x is not None
        return x

    monkeypatch.setattr(cs._intlinalg.ImageSolver, "preimage", counted)
    spec = make_spec([(1, 0), (0, 1)] + [(1, 1)] * 3, [2] * 5)
    patterns = cs.enumerate_admissible(spec)
    gens = [cs.minimal_generators(cs.ConeSemigroup(spec, p)) for p in patterns]
    assert (len(patterns), sum(len(g.sigma) for g in gens)) == (6, 12)
    assert counts == {"calls": 0, "hits": 0}
    routes = [route_counts(cs.ConeSemigroup(spec, p)) for p in patterns]
    assert tuple(map(sum, zip(*routes))) == (12, 0)
    cone = P(SPEC_5_3, "+1+2")
    assert cs.minimal_common_upper_bounds(cone, (1, -1), (1, 1), 4) == [(2, 0)]
    assert counts == {"calls": 15, "hits": 9}
    assert counts["calls"] == comb(cs._search_depth(cone.flipped_rows, 2, (2, 2)) + 2, 2)


def test_long_ray_rank3_cone_is_certified_at_its_depth():
    # a long ray: a walk over the compositions of layers 1..54 in N^4 asks
    # C(58, 4) - 1 = 424269 questions here, the simplex walk C(57, 3) =
    # 29260; the ray route lists its 4 rays and the 117 parallelepiped
    # points of a fan of 2 simplicial cones
    spec = make_spec([(-1, 0, 2), (0, -2, 1), (2, -2, -1), (2, 1, 0)], [2] * 4)
    cone = P(spec, "+1-2-3+4")
    g = cs.minimal_generators(cone, 54)
    assert (len(g.sigma), g.certified_layer, g.max_layer) == (15, 54, 20)
    assert route_counts(cone) == (4, 117)
    want = minimal_points_by_compositions(cone.flipped_rows, (0,) * 4, 1, 54)
    assert g.sigma == tuple(sorted(x for _, x in want))
    assert g.max_layer == max(sum(v) for v, _ in want)
    with pytest.raises(CertificationFailed, match="54"):
        cs.minimal_generators(cone)


def generator_fields(g):
    """Every field of a GeneratorSet, with the two that `==` skips."""
    return (g.sigma, g.sigma_plus, g.sigma_zero, g.sigma_minus, g.max_layer, g.certified_layer)


def draw_cone(data):
    """A drawn cone of rank 1 to 5.  Ranks 1 and 2 are simplicial.  Four
    or five rows of rank 3 or 4, distinct up to sign, may give a
    non-simplicial cone; five rows of rank 5 give a simplicial one."""
    rank = data.draw(st.integers(1, 5), label="rank")
    w = (3, 3, 1, 1, 1)[rank - 1]
    row = st.tuples(*[st.integers(-w, w)] * rank).filter(any)
    up_to_sign = (lambda r: max(r, la.vneg(r))) if rank > 2 else None
    rows = data.draw(st.lists(row, min_size=max(rank, 4 * (rank > 2)),
                              max_size=4 + (rank > 2), unique_by=up_to_sign),
                     label="rows")
    spec = make_spec(rows, [2] * len(rows))
    assume(not uniscalar_kernel(spec))
    pattern = data.draw(st.sampled_from(cs.enumerate_admissible(spec)), label="pattern")
    return cs.ConeSemigroup(spec, pattern)


def no_walk(*args):
    raise AssertionError("the generator search walked")


@settings(max_examples=200)
@given(st.data())
def test_ray_route_matches_the_compositions(data):
    cone = draw_cone(data)
    spec, rank = cone.spec, cone.spec.rank
    flipped = cone.flipped_rows
    depth = cs._ray_bound(flipped, rank)
    assume(depth <= (20 if spec.components <= 4 else 14))
    with mock.patch.object(cs, "_minimal_points", no_walk), \
            mock.patch.object(cs._intlinalg.ImageSolver, "preimage", no_walk):
        got = cs.minimal_generators(cone, depth)
    want = minimal_points_by_compositions(flipped, (0,) * spec.components, 1, depth)
    sigma = tuple(sorted(x for _, x in want))
    signs = [rho(spec, x) for x in sigma]
    assert generator_fields(got) == (
        sigma,
        tuple(x for x, r in zip(sigma, signs) if min(r) >= 0),
        tuple(x for x, r in zip(sigma, signs) if min(r) < 0 < max(r)),
        tuple(x for x, r in zip(sigma, signs) if max(r) <= 0),
        max(sum(v) for v, _ in want),
        depth,
    )


@settings(max_examples=100)
@given(st.data())
def test_pulling_fan_covers_the_cone(data):
    # every fan cone is spanned by `rank` independent extreme rays, and
    # every lattice point of the cone in a box has nonnegative
    # coordinates on the rays of some fan cone
    cone = draw_cone(data)
    rank, flipped = cone.spec.rank, cone.flipped_rows
    rays = tuple(r for r, _ in cs._extreme_rays(flipped, rank))
    fan = cs._simplicial_fan(rays, flipped, rank)
    assert (fan == [rays]) if len(rays) == rank else (len(fan) > 1)
    columns = []
    for simplex in fan:
        assert len(simplex) == rank and set(simplex) <= set(rays)
        assert la.rational_rank(simplex) == rank
        columns.append([list(col) for col in zip(*simplex)])
    for x in brute_cone_points(cone, 2 if rank <= 4 else 1):
        assert any(min(la.solve_scaled(mat, x)[0]) >= 0 for mat in columns), (fan, x)


def test_nonsimplicial_rank4_cone_takes_the_ray_route(monkeypatch):
    # the cone over a square: x3 >= 0 and |x1|, |x2| <= x4, with the rays
    # (+-1, +-1, 0, 1) and (0, 0, 1, 0)
    spec = make_spec([(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 0)],
                     [2] * 5)
    cone = P(spec, "+1+2+3+4+5")
    flipped = cone.flipped_rows
    rays = tuple(r for r, _ in cs._extreme_rays(flipped, 4))
    fan = cs._simplicial_fan(rays, flipped, 4)
    assert len(rays) == 5 and len(fan) == 2
    assert [len(cs._parallelepiped_points(c)) for c in fan] == [3, 3]
    asked = []
    preimage = cs._intlinalg.ImageSolver.preimage
    monkeypatch.setattr(cs._intlinalg.ImageSolver, "preimage",
                        lambda self, b: asked.append(b) or preimage(self, b))
    g = cs.minimal_generators(cone)
    assert g.certified_layer == 16 and asked == []
    want = minimal_points_by_compositions(flipped, (0,) * 5, 1, 16)
    assert g.sigma == tuple(sorted(x for _, x in want))
    # the nine lattice points of the square at x4 = 1, and (0, 0, 1, 0)
    assert len(g.sigma) == 10 and set(rays) < set(g.sigma)


def rays_by_cross_products(flipped):
    """Extreme rays of a rank-3 cone {x : F x >= 0}: the primitive cross
    products of two rows on which F takes one sign, oriented into it."""
    rays = set()
    for a, b in combinations(flipped, 2):
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if any(c):
            c = tuple(x // gcd(*c) for x in c)
            values = [la.dot(row, c) for row in flipped]
            if min(values) >= 0 or max(values) <= 0:
                rays.add(c if min(values) >= 0 else tuple(-x for x in c))
    return sorted(rays)


def fan_by_facets(flipped, rays):
    """Triangles covering a rank-3 cone, fanned from its first ray along
    the cycle of its facets: two rays are neighbours when one row vanishes
    on both."""
    cycle = [rays[0]]
    while len(cycle) < len(rays):
        cycle.append(next(r for r in rays if r not in cycle and any(
            la.dot(row, cycle[-1]) == 0 == la.dot(row, r) for row in flipped)))
    return [(cycle[0], a, b) for a, b in zip(cycle[1:], cycle[2:])]


def parallelepiped_by_group(cone):
    """Nonzero lattice points of the half-open parallelepiped of three
    independent rays: the group Z^3 / R Z^3, each class reduced to its
    fractional coordinates on the rays, generated from the unit vectors."""
    mat = [list(col) for col in zip(*cone)]

    def reduced(x):
        y, d = la.solve_scaled(mat, x)
        return tuple(c - sum(mat[j][i] * (y[i] // d) for i in range(3)) for j, c in enumerate(x))

    seen, todo = {(0, 0, 0)}, [(0, 0, 0)]
    while todo:
        x = todo.pop()
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            z = reduced(tuple(map(add, x, e)))
            if z not in seen:
                seen.add(z)
                todo.append(z)
    assert len(seen) == la.solve_scaled(mat, (0, 0, 0))[1]  # |det R| classes
    return seen - {(0, 0, 0)}


def test_rank3_q10_draw_is_certified_at_bound_500():
    # every cone refuses at the default bound 16 and needs depth 148..474,
    # where the simplex walk would ask 3.3e8 questions over the 80; each
    # basis is checked by code apart from the route: no element lies above
    # another, and the rays and the parallelepiped points of a fan of
    # triangles along the facets are sums of basis elements
    spec = random_draw(3, 10)
    patterns = cs.enumerate_admissible(spec)
    candidates, fans = [0, 0], 0
    for pattern in patterns:
        cone = cs.ConeSemigroup(spec, pattern)
        g = cs.minimal_generators(cone, 500)
        assert 148 <= g.certified_layer <= 474
        flipped = cone.flipped_rows
        image = lambda x: tuple(la.dot(row, x) for row in flipped)  # noqa: E731
        basis = [image(x) for x in g.sigma]
        assert not any(a != b and all(map(ge, a, b)) for a in basis for b in basis)
        sums = {}

        def generated(v):
            if not any(v):
                return True
            if v not in sums:
                sums[v] = any(min(w) >= 0 and generated(w)
                              for b in basis for w in [tuple(map(sub, v, b))])
            return sums[v]

        rays = rays_by_cross_products(flipped)
        points = list(rays)
        for triangle in fan_by_facets(flipped, rays):
            points += parallelepiped_by_group(triangle)
        assert all(generated(image(x)) for x in points)
        candidates = list(map(add, candidates, route_counts(cone)))
        fans += len(cs._simplicial_fan(tuple(rays), flipped, 3)) > 1
    assert (len(patterns), candidates, fans) == (80, [292, 5338], 48)


def test_minimal_common_upper_bounds_requires_membership():
    cone = P(SPEC_5_3, "+1+2")
    with pytest.raises(NotInSemigroup):
        cs.minimal_common_upper_bounds(cone, (0, 1), (1, 0))


# ---------------------------------------------------------------------------
# scale exponent forms


def test_scale_exponent_forms():
    forms = cs.scale_exponent_forms(SPEC_5_2, cs.SignPattern.parse("+1+2+3"))
    assert forms == ((2, (2, 2)),)
    assert cs.format_scale(forms) == "2^(2n1+2n2)"
    assert cs.scale_exponent_forms(SPEC_5_2, cs.SignPattern.parse("-1-2-3")) == ()
    assert cs.format_scale(()) == "1"
    mixed = make_spec([(1, 0), (0, 1)], [2, 3])
    forms = cs.scale_exponent_forms(mixed, cs.SignPattern.parse("+1+2"))
    assert forms == ((2, (1, 0)), (3, (0, 1)))
    assert cs.format_scale(forms) == "2^(n1)*3^(n2)"
    assert cs.format_linear_form((1, -1)) == "n1-n2"
    assert cs.format_linear_form((0, 0)) == "0"
