"""The pure-int fusion kernels against their numpy predecessors.

verify_invariants and grothendieck_equiv, and the relabel_fusion oracle,
must return the same witnesses, in the same order, as the numpy code in
tests/_oracles.py:
the first associativity failure in C order of (i, j, k, l), and the first
matching permutation in itertools.permutations order.
"""

import random
from itertools import permutations

import pytest

from _oracles import (
    numpy_grothendieck_equiv,
    numpy_relabel_fusion,
    numpy_verify_invariants,
    relabel_fusion,
)
from moddata.classifier import grothendieck_equiv
from moddata.modular_data import FusionRules, verlinde_fusion

pytest.importorskip("numpy")


def rules(r, n):
    """FusionRules with N_ij^k = n(i, j, k)."""
    return FusionRules(
        tuple(tuple(tuple(n(i, j, k) for k in range(r)) for j in range(r)) for i in range(r))
    )


def s3_group_ring():
    """The group ring of S_3: commutative in no sense, associative."""
    elems = list(permutations(range(3)))  # elems[0] is the identity
    index = {g: i for i, g in enumerate(elems)}
    mul = [[index[tuple(g[h[x]] for x in range(3))] for h in elems] for g in elems]
    return rules(6, lambda i, j, k: int(mul[i][j] == k))


def non_associative_rank3():
    """1, x, y with x^2 = 1 + y, y^2 = 1 + x, xy = x + y: N_abc is totally
    symmetric, so only associativity (and with it commutation) fails."""
    products = {(1, 1): {0, 2}, (1, 2): {1, 2}, (2, 1): {1, 2}, (2, 2): {0, 1}}
    return rules(3, lambda i, j, k: int(k in products.get((i, j), {i + j})))


def z5():
    """The group ring of Z_5."""
    return rules(5, lambda i, j, k: int((i + j) % 5 == k))


def z5_self_dual():
    """Z_5 with N_ij^0 = delta_ij, so that every label is its own dual."""
    return rules(5, lambda i, j, k: int(i == j if k == 0 else (i + j) % 5 == k))


def z5_no_dual():
    """Z_5 with N_14^0 = 2, so that label 1 has no dual."""
    return rules(5, lambda i, j, k: 2 if (i, j, k) == (1, 4, 0) else int((i + j) % 5 == k))


def z5_asymmetric():
    """Z_5 with 1 * 2 = 4 instead of 3, and 2 * 1 = 3 kept."""
    fixed = z5()
    return rules(5, lambda i, j, k: int(k == 4) if (i, j) == (1, 2) else fixed.n(i, j, k))


def z5_unit_moved():
    """Z_5 with label i standing for g^(i+1), so label 0 is not the unit."""
    return rules(5, lambda i, j, k: int((i + j + 1) % 5 == k))


# each broken tensor and a witness of the identity it violates
BROKEN = {
    "symmetry": (z5_asymmetric, "N[1,2]^3 != N[2,1]^3"),
    "duality": (z5_self_dual, "!= N[i,k*]^(j*)"),
    "no dual": (z5_no_dual, "no k with N[1,k]^0 = 1"),
    "unit": (z5_unit_moved, "N[0,0]^0 != delta(0,0)"),
    "associativity": (non_associative_rank3, "associativity fails at"),
    "commutativity": (s3_group_ring, "do not commute"),
}


@pytest.fixture(scope="module")
def catalog_fusions(catalog_rank5):
    return sorted({verlinde_fusion(d) for _, d in catalog_rank5}, key=lambda f: f.tensor)


def random_relabelings(fusion, seed, count=3):
    rng = random.Random(seed)
    for _ in range(count):
        rest = list(range(1, fusion.rank))
        rng.shuffle(rest)
        yield (0,) + tuple(rest)


def test_catalog_rings_and_relabelings_agree(catalog_fusions):
    assert len(catalog_fusions) == 3
    for seed, fusion in enumerate(catalog_fusions):
        assert fusion.verify_invariants() == numpy_verify_invariants(fusion) == []
        for perm in random_relabelings(fusion, seed):
            relabeled = relabel_fusion(fusion, perm)
            tensor, dual = numpy_relabel_fusion(fusion, perm)
            assert [[list(row) for row in plane] for plane in relabeled.tensor] == tensor
            assert relabeled.dual == dual
            assert relabeled.verify_invariants() == numpy_verify_invariants(relabeled) == []
            witness = grothendieck_equiv(fusion, relabeled)
            assert witness is not None
            assert witness == numpy_grothendieck_equiv(fusion, relabeled)
        for other in catalog_fusions:
            assert grothendieck_equiv(fusion, other) == numpy_grothendieck_equiv(fusion, other)


@pytest.mark.parametrize("identity", sorted(BROKEN))
def test_broken_tensor_witnesses_agree(identity):
    make, expected = BROKEN[identity]
    fusion = make()
    witnesses = fusion.verify_invariants()
    assert any(expected in w for w in witnesses)
    assert witnesses == numpy_verify_invariants(fusion)


def test_random_perturbations_agree(catalog_fusions):
    """Single-entry bumps break several identities at scattered (i, j, k, l)."""
    rng = random.Random(11)
    for _ in range(40):
        base = rng.choice(catalog_fusions)
        hit = tuple(rng.randrange(base.rank) for _ in range(3))
        bump = rng.choice((1, 2))
        fusion = rules(base.rank, lambda *ijk: base.n(*ijk) + bump * (ijk == hit))
        assert fusion.verify_invariants() == numpy_verify_invariants(fusion)
        assert grothendieck_equiv(base, fusion) == numpy_grothendieck_equiv(base, fusion)


@pytest.mark.parametrize("make", [s3_group_ring, z5], ids=["S3", "Z5"])
def test_first_of_several_matching_relabelings(make):
    """With nontrivial automorphisms several relabelings match; the first
    in permutations order is the witness."""
    fusion = make()
    automorphisms = [
        perm
        for perm in ((0,) + rest for rest in permutations(range(1, fusion.rank)))
        if relabel_fusion(fusion, perm).tensor == fusion.tensor
    ]
    assert len(automorphisms) > 1
    for perm in random_relabelings(fusion, seed=fusion.rank, count=6):
        relabeled = relabel_fusion(fusion, perm)
        assert grothendieck_equiv(fusion, relabeled) == numpy_grothendieck_equiv(
            fusion, relabeled
        )
