import math
from fractions import Fraction
from itertools import product

import pytest

from pgraphs import cone_semigroup as cs
from pgraphs.coset_model import (
    PRIME_TEST_LIMIT,
    PadicModel,
    TreeModel,
    Vertex,
    _is_prime,
    caps,
    fiber,
    positions_from_caps,
    truncate,
)
from pgraphs.errors import LevelNotComparable, NonPrimeModulus, NotInSemigroup
from pgraphs.flat_core import rho, scale


def cone(model, text):
    return cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse(text))


def test_derive_flat_spec(model_5_2, tree_3, model_coprime):
    spec = model_5_2.flat_spec()
    assert spec.weights == ((1, 0), (1, 1), (0, 1))
    assert spec.relative_scales == (2, 2, 2)
    spec = tree_3.flat_spec()
    assert spec.rank == spec.components == 1 and spec.relative_scales == (3,)
    assert model_coprime.flat_spec().relative_scales == (2, 3)


def test_padic_rejects_composite_modulus():
    with pytest.raises(NonPrimeModulus):
        PadicModel(((4, (1, 0)),))


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        318665857834031151167461,  # psi_12: strong pseudoprime to bases 2..37
        (2**31 - 1) * (2**61 - 1),  # above the limit, but a base witnesses it
    ],
)
def test_padic_rejects_pseudoprime_moduli(n):
    assert not _is_prime(n)
    with pytest.raises(NonPrimeModulus):
        PadicModel(((n, (1,)),))


def test_large_primes_decided_or_refused():
    assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)
    assert PadicModel(((2**61 - 1, (1,)),)).flat_spec().relative_scales == (2**61 - 1,)
    # at or above the limit, passing every base proves nothing: never guess
    # a prime, and psi_13, a composite that passes every base
    for n in (2**89 - 1, PRIME_TEST_LIMIT):
        with pytest.raises(ValueError, match=r"rows\[1\]\.prime: .*decided only below"):
            PadicModel(((2, (1,)), (n, (1,))))


def test_tree_valency_one_has_no_spec():
    with pytest.raises(ValueError):
        TreeModel((1,))  # a valency-1 tree carries no expansion


def test_fiber_examples(model_5_2, tree_3):
    P = cone(model_5_2, "+1+2+3")
    vs = fiber(model_5_2, P, (1, 1))
    assert len(vs) == 16
    assert caps(model_5_2, (1, 1)) == (2, 4, 2)
    assert vs[0].residues == (0, 0, 0)
    assert vs == sorted(vs, key=lambda v: v.residues)

    assert len(fiber(model_5_2, P, (0, 0))) == 1

    Pt = cone(tree_3, "+1")
    assert len(fiber(tree_3, Pt, (2,))) == 9


def test_fiber_size_equals_scale(model_5_3):
    P = cone(model_5_3, "+1+2")
    spec = model_5_3.flat_spec()
    for x in product(range(0, 4), range(-3, 4)):
        if P.contains(x):
            assert len(fiber(model_5_3, P, x)) == scale(spec, x)


def test_fiber_requires_membership(model_5_3):
    P = cone(model_5_3, "+1+2")
    with pytest.raises(NotInSemigroup):
        fiber(model_5_3, P, (0, 1))


def test_padic_truncation_example(model_5_2):
    v = Vertex((1, 1), (1, 3, 1))
    w = truncate(model_5_2, (1, 0), (1, 1), v)
    assert w == Vertex((1, 0), (1, 1, 0))
    assert truncate(model_5_2, (1, 1), (1, 1), v) == v


def test_padic_truncation_against_coset_arithmetic(model_5_2):
    # oracle: residue r with cap s**m encodes the coset r * s**-m + Z_s;
    # moving down multiplies by s**(m_y - m_x), i.e. keeps the fractional
    # part of r / s**m_x
    P = cone(model_5_2, "+1+2+3")
    spec = model_5_2.flat_spec()
    for x, y in [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 2)), ((0, 0), (2, 1))]:
        cap_x, cap_y = caps(model_5_2, x), caps(model_5_2, y)
        for v in fiber(model_5_2, P, y):
            got = truncate(model_5_2, x, y, v)
            for j, (r, cx, cy) in enumerate(zip(v.residues, cap_x, cap_y)):
                frac = Fraction(r * (cy // cx), cy)  # value after scaling
                frac -= int(frac)  # discard the integer part
                assert got.residues[j] == frac * cx
        assert rho(spec, x)  # sanity: oracle levels are nontrivial


def test_tree_truncation_prefix_oracle():
    model = TreeModel((2,))
    P = cone(model, "+1")

    def digits(r, length):
        return tuple((r >> (length - 1 - i)) & 1 for i in range(length))

    assert truncate(model, (1,), (3,), Vertex((3,), (5,))).residues == (1,)
    for v in fiber(model, P, (3,)):
        word = digits(v.residues[0], 3)
        for m in (0, 1, 2, 3):
            got = truncate(model, (m,), (3,), v)
            assert digits(got.residues[0], m) == word[:m]


def test_truncation_composes(model_5_3, tree_3):
    for model, text, triples in [
        (model_5_3, "+1+2", [((0, 0), (1, 0), (2, 0)), ((1, -1), (2, -1), (3, -2))]),
        (tree_3, "+1", [((0,), (1,), (3,)), ((1,), (2,), (4,))]),
    ]:
        P = cone(model, text)
        for x, y, z in triples:
            for v in fiber(model, P, z):
                direct = truncate(model, x, z, v)
                via = truncate(model, x, y, truncate(model, y, z, v))
                assert direct == via


def test_preimage_counts(model_5_2):
    P = cone(model_5_2, "+1+2+3")
    spec = model_5_2.flat_spec()
    for x, y in [((0, 0), (1, 1)), ((1, 0), (2, 1)), ((1, 1), (1, 2))]:
        expected = math.prod(cy // cx for cx, cy in zip(caps(model_5_2, x), caps(model_5_2, y)))
        mx, my = rho(spec, x), rho(spec, y)
        assert expected == math.prod(
            s ** (max(b, 0) - max(a, 0))
            for s, a, b in zip(spec.relative_scales, mx, my)
        )
        hits = {}
        for v in fiber(model_5_2, P, y):
            hits.setdefault(truncate(model_5_2, x, y, v), 0)
            hits[truncate(model_5_2, x, y, v)] += 1
        assert set(hits.values()) == {expected}
        assert len(hits) == len(fiber(model_5_2, P, x))  # surjective


def test_truncate_incomparable_levels(model_5_3):
    P = cone(model_5_3, "+1+2")
    v = fiber(model_5_3, P, (1, 1))[0]
    with pytest.raises(LevelNotComparable):
        truncate(model_5_3, (1, -1), (1, 1), v)
    with pytest.raises(LevelNotComparable):
        truncate(model_5_3, (1, -1), (2, 0), v)  # wrong vertex level


@pytest.mark.parametrize(
    "model, text, pairs",
    [
        ("model_5_2", "+1+2+3", [((0, 0), (1, 1)), ((1, 0), (1, 1)), ((0, 1), (2, 2))]),
        ("model_5_3", "+1+2", [((0, 0), (1, 0)), ((1, -1), (3, -2)), ((1, 1), (2, 1))]),
        ("model_coprime", "+1+2", [((0, 1), (1, 2)), ((1, 0), (2, 2))]),
        ("tree_3", "+1", [((0,), (1,)), ((1,), (3,)), ((2,), (2,))]),
        (TreeModel((2, 3)), "+1+2", [((0, 1), (2, 2)), ((1, 0), (1, 2))]),
    ],
)
def test_truncation_positions_agree_with_truncate(request, model, text, pairs):
    if isinstance(model, str):
        model = request.getfixturevalue(model)
    P = cone(model, text)
    for x, y in pairs:
        below = {v: i for i, v in enumerate(fiber(model, P, x))}
        want = [below[truncate(model, x, y, v)] for v in fiber(model, P, y)]
        assert positions_from_caps(model, x, y, caps(model, x), caps(model, y)) == want


def test_truncation_positions_incomparable_levels(model_5_3):
    with pytest.raises(LevelNotComparable, match="not comparable"):
        x, y = (1, -1), (1, 1)
        positions_from_caps(model_5_3, x, y, caps(model_5_3, x), caps(model_5_3, y))


def test_tree_orbit_sizes(tree_3):
    P = cone(tree_3, "+1")
    assert [len(fiber(tree_3, P, (i,))) for i in range(5)] == [1, 3, 9, 27, 81]
