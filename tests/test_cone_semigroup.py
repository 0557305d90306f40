import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pgraphs import cone_semigroup as cs
from pgraphs.errors import CertificationFailed, KernelNotTrivial, NotInSemigroup
from pgraphs.flat_core import make_spec, rho, scale

SPEC_5_1 = make_spec([(1, 0), (0, 1)], [2, 2])
SPEC_5_2 = make_spec([(1, 0), (1, 1), (0, 1)], [2, 2, 2])
SPEC_5_3 = make_spec([(1, 1), (1, -1)], [2, 2])


def P(spec, text):
    return cs.ConeSemigroup(spec, cs.SignPattern.parse(text))


def brute_cone_points(P_, radius):
    return [
        x
        for x in product(range(-radius, radius + 1), repeat=P_.spec.rank)
        if P_.contains(x)
    ]


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


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_exact_infeasible():
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({1, 3}, {2}), 20)
    assert not res.admissible and res.exact_infeasible
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({2}, {1, 3}), 20)
    assert not res.admissible and res.exact_infeasible


def test_admissibility_witness_strict():
    res = cs.is_admissible(SPEC_5_2, cs.SignPattern.of({1, 2}, {3}))
    assert res.admissible
    r = rho(SPEC_5_2, res.witness)
    assert r[0] > 0 and r[1] > 0 and r[2] < 0


def test_admissibility_all_minus():
    res = cs.is_admissible(SPEC_5_1, cs.SignPattern.of((), {1, 2}))
    assert res.witness == (-1, -1)


def test_enumerate_admissible_counts():
    pats_2 = cs.enumerate_admissible(SPEC_5_2)
    assert [tuple(sorted(p.j_plus)) for p in pats_2] == [
        (), (1,), (1, 2), (1, 2, 3), (2, 3), (3,),
    ]
    pats_3 = cs.enumerate_admissible(SPEC_5_3)
    assert [tuple(sorted(p.j_plus)) for p in pats_3] == [(), (1,), (1, 2), (2,)]
    assert len(cs.enumerate_admissible(SPEC_5_1)) == 4


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
    ],
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


def test_check_maximality():
    report = cs.check_maximality(P(SPEC_5_2, "+1+2+3"), 4)
    assert report.ok and report.samples_checked == 81
    for text in ("+1+2", "+1-2", "-1+2", "-1-2"):
        assert cs.check_maximality(P(SPEC_5_3, text), 4).ok


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
