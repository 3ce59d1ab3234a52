"""The package's graph walks against the walks they replaced (tests/_oracles.py).

galois._components answers the connectivity questions (Galois orbits, the
t-spectrum graph) and modular_data._closure the closure ones (permutation
groups, smooth residues); signed_perm_match reads its signs off a spanning
forest before its full check.  Each is compared with the walk as it stood on
catalog lifts, on seeded relabelled, sign-flipped and one-entry-perturbed
copies, and on block-diagonal sums of two lifts, which can be disconnected.
"""

import random
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from moddata.catalog import pointed_zn, rank5_catalog, su2_odd_mod2
from moddata.cyclotomic import ONE, ZERO, zeta
from moddata.galois import _components, compute_profile
from moddata.modular_data import _closure, compose, load, replace
from moddata.sl2z_reps import ModularRep, all_lifts, signed_perm_match, spectra_connectivity
import _oracles as oracle

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lift_sets():
    data = [d for _, d in rank5_catalog()] + [su2_odd_mod2(2, 3), pointed_zn(3, 7)]
    return [all_lifts(d) for d in data]


@pytest.fixture(scope="module")
def block_sums(lift_sets):
    """Block-diagonal sums of two lifts at the lcm of their levels."""
    pool = [lifts[a] for lifts in (lift_sets[0], lift_sets[-2], lift_sets[-1]) for a in (0, 1, 5)]
    return [block_sum(x, y) for x, y in combinations(pool, 2)]


def block_sum(rep1, rep2):
    level = lcm(rep1.level, rep2.level)
    r1, r2 = rep1.rank, rep2.rank
    s = tuple(row + (ZERO,) * r2 for row in rep1.s) + tuple((ZERO,) * r1 + row for row in rep2.s)
    exps = tuple(e * (level // rep1.level) for e in rep1.t_exponents)
    exps += tuple(e * (level // rep2.level) for e in rep2.t_exponents)
    parity = rep1.parity if rep1.parity == rep2.parity else "neither"
    return ModularRep(s, level, exps, parity)


def relabelled(rep, perm, signs):
    """U^-1 s U for the signed permutation U, with t relabelled to match."""
    r = rep.rank
    s = tuple(
        tuple(signs[a] * signs[b] * rep.s[perm[a]][perm[b]] for b in range(r))
        for a in range(r)
    )
    exps = tuple(rep.t_exponents[perm[a]] for a in range(r))
    return replace(rep, S=s, lam=ONE, t_exponents=exps)


def perturbed(rep, rng):
    """rep with one entry of s negated, shifted by 1 or multiplied by a root."""
    r = rep.rank
    a, b = rng.randrange(r), rng.randrange(r)
    change = rng.choice([lambda v: -v, lambda v: v + ONE, lambda v: v * zeta(3)])
    s = tuple(
        tuple(change(v) if (i, j) == (a, b) else v for j, v in enumerate(row))
        for i, row in enumerate(rep.s)
    )
    return replace(rep, S=s, lam=ONE)


def copies(rep, rng, count=4):
    """Seeded relabelled-and-sign-flipped copies, each also perturbed once."""
    out = []
    for _ in range(count):
        perm = list(range(rep.rank))
        rng.shuffle(perm)
        copy = relabelled(rep, perm, [rng.choice([1, -1]) for _ in perm])
        out += [copy, perturbed(copy, rng)]
    return out


def match_or_error(match, rep1, rep2):
    try:
        return match(rep1, rep2)
    except ValueError as exc:
        return type(exc), str(exc)


class TestComponents:
    def test_random_edges_match_union_find_over_transpositions(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randrange(1, 10)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
            swaps = []
            for i, j in edges:
                swap = list(range(n))
                swap[i], swap[j] = j, i
                swaps.append(tuple(swap))
            assert _components(n, edges) == oracle.orbits_from_perms(n, swaps)

    def test_random_permutations(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randrange(1, 9)
            perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(3))]
            edges = [(i, j) for p in perms for i, j in enumerate(p)]
            assert _components(n, edges) == oracle.orbits_from_perms(n, perms)

    def test_profile_orbits_on_data_files(self):
        paths = sorted((ROOT / "data").glob("*.json"))
        paths += sorted((ROOT / "tests/golden_reports/data").glob("*.json"))
        data = [su2_odd_mod2(p, c) for p, c in ((1, 1), (2, 3), (3, 2), (5, 1))]
        data += [pointed_zn(n, m) for n, m in ((3, 7), (5, 2), (7, 1))]
        compared = 0
        for datum in [load(path) for path in paths] + data:
            try:
                profile = compute_profile(datum)
            except ValueError:
                continue  # raised before any orbit is formed
            assert profile.orbits == oracle.orbits_from_perms(datum.rank, profile.perms.values())
            compared += 1
        assert compared >= 30


class TestSpectraConnectivity:
    def test_lifts_and_copies(self, lift_sets):
        rng = random.Random(22)
        for lifts in lift_sets:
            for rep in lifts:
                for case in [rep] + copies(rep, rng, 1):
                    assert spectra_connectivity(case) == oracle.spectra_connectivity(case)

    def test_block_sums(self, block_sums):
        rng = random.Random(23)
        verdicts = []
        for rep in block_sums:
            for case in [rep] + copies(rep, rng, 1):
                verdict = spectra_connectivity(case)
                assert verdict == oracle.spectra_connectivity(case)
                verdicts.append(verdict.ok)
        assert False in verdicts and True in verdicts


class TestSignedPermMatch:
    def test_lifts_copies_and_pairs(self, lift_sets):
        rng = random.Random(24)
        matched = 0
        for lifts in lift_sets:
            for rep in lifts:
                for case in copies(rep, rng):
                    got = match_or_error(signed_perm_match, rep, case)
                    assert got == match_or_error(oracle.signed_perm_match, rep, case)
                    matched += got is not None and not isinstance(got, tuple)
            for rep1, rep2 in combinations(lifts[:6], 2):
                got = match_or_error(signed_perm_match, rep1, rep2)
                assert got == match_or_error(oracle.signed_perm_match, rep1, rep2)
        assert matched >= 50

    def test_block_sums(self, block_sums):
        rng = random.Random(25)
        nondegenerate = [rep for rep in block_sums if len(set(rep.t_exponents)) == rep.rank]
        split = [rep for rep in nondegenerate if not spectra_connectivity(rep).ok]
        assert split, "no disconnected nondegenerate block sum"
        for rep in nondegenerate:
            for case in copies(rep, rng):
                assert signed_perm_match(rep, case) == oracle.signed_perm_match(rep, case)
        for rep in split:
            # a sign flip on one block alone is a match only block by block
            r = rep.rank
            lead = spectra_connectivity(rep).witness
            signs = [-1 if i in lead else 1 for i in range(r)]
            case = relabelled(rep, list(range(r)), signs)
            got = signed_perm_match(rep, case)
            assert got is not None and got == oracle.signed_perm_match(rep, case)


class TestClosure:
    def test_permutation_groups(self):
        rng = random.Random(26)
        for _ in range(100):
            rank = rng.randrange(1, 6)
            gens = [tuple(rng.sample(range(rank), rank)) for _ in range(rng.randrange(3))]
            got = _closure(tuple(range(rank)), compose, gens)
            assert got == oracle.generate(rank, gens)

    def test_smooth_residues(self):
        primes = (2, 3, 5, 7, 11, 13)
        for m in range(1, 40):
            for k in range(len(primes) + 1):
                for subset in combinations(primes, k):
                    got = _closure(1 % m, lambda c, p: c * p % m, frozenset(subset))
                    assert got == oracle.smooth_residues(frozenset(subset), m)
