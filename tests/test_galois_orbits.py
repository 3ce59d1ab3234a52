"""Verdicts shared along Galois orbits: the vanishing-sum scan runs its kernel
once per orbit of root pairs, and the twist-symmetry check matches h_sigma
once per residue of k and compares the twists by their logs.  Both are
compared with the term-by-term loops they replace, kept here as oracles."""

from dataclasses import replace
from math import gcd, lcm

import pytest

from moddata import classifier
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.classifier import _all_nonzero_solution_exists, vanishing_sum_scan
from moddata.cyclotomic import ONE, Cyclotomic, units_mod, zeta
from moddata.galois import _characters, _match_permutation, galois_twist_symmetry
from moddata.modular_data import Verdict
from moddata.sl2z_reps import all_lifts


def orbit_key(alpha, beta):
    """(m, n, eb * ea^-1 mod gcd(m, n)) for alpha = zeta_m^ea, beta = zeta_n^eb."""
    m, ea = alpha.root_of_unity_log()
    n, eb = beta.root_of_unity_log()
    g = gcd(m, n)
    return (m, n, eb * pow(ea, -1, g) % g)


def oracle_vanishing_sum_scan(max_order):
    """One kernel call per pair of roots, every pair visited."""
    roots = []
    for order in range(1, max_order + 1):
        for e in range(order):
            if order == 1 or gcd(e, order) == 1:
                roots.append((order, zeta(order, e)))
    counterexamples = []
    i_root = zeta(4)
    for orda, alpha in roots:
        for ordb, beta in roots:
            if orda > ordb:
                continue
            if (alpha == ONE or alpha == -ONE) and (
                beta == i_root or beta == -i_root
            ):
                continue
            if lcm(4, alpha.conductor) % beta.conductor:
                continue
            if lcm(4, beta.conductor) % alpha.conductor:
                continue
            if classifier._all_nonzero_solution_exists([ONE, i_root, alpha, beta]):
                counterexamples.append(
                    {"alpha": alpha, "beta": beta, "ord_alpha": orda, "ord_beta": ordb}
                )
    return counterexamples


def test_kernel_verdict_constant_on_orbits():
    # every pair the scan could visit (ord alpha <= ord beta), with none of
    # its filters applied
    roots = [
        (m, e, zeta(m, e)) for m in range(1, 21) for e in range(m) if gcd(e, m) == 1
    ]
    verdicts = {}
    for m, ea, alpha in roots:
        for n, eb, beta in roots:
            if m > n:
                continue
            g = gcd(m, n)
            key = (m, n, eb * pow(ea, -1, g) % g)
            hit = _all_nonzero_solution_exists([ONE, zeta(4), alpha, beta])
            assert verdicts.setdefault(key, hit) == hit, (m, ea, n, eb)
    # the forced shape (+-1, +-i) is the only true orbit
    assert {key for key, hit in verdicts.items() if hit} == {(1, 4, 0), (2, 4, 1)}


FAKE_KERNELS = {
    # Galois-invariant stand-ins for the kernel that make hits exist:
    # one depends only on the conductor of beta, one on the whole orbit key
    "conductor": lambda key, columns: columns[3].conductor % 3 == 0,
    "orbit_key": lambda key, columns: key[2] == 1 % gcd(key[0], key[1]),
}


@pytest.mark.parametrize("fake_name", sorted(FAKE_KERNELS))
@pytest.mark.parametrize("max_order", [12, 24])
def test_scan_matches_oracle_with_hits(monkeypatch, max_order, fake_name):
    calls = []

    def fake(columns):
        key = orbit_key(columns[2], columns[3])
        calls.append(key)
        return FAKE_KERNELS[fake_name](key, columns)

    monkeypatch.setattr(classifier, "_all_nonzero_solution_exists", fake)
    expected = oracle_vanishing_sum_scan(max_order)
    orbits = set(calls)
    calls.clear()
    got = vanishing_sum_scan(max_order)
    assert expected
    assert got == expected
    # one kernel call per orbit of the pairs the oracle visits
    assert sorted(calls) == sorted(orbits)


def outcome(f, rep):
    """The verdict, or the type of the exception raised."""
    try:
        return f(rep)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def oracle_twist_symmetry(rep):
    """One permutation match and two Galois images per unit mod the level."""
    cols = _characters(rep.s)
    n = rep.level
    for k in units_mod(n):
        perm = _match_permutation(cols, k)
        for i, t in enumerate(rep.t):
            if t.galois(k).galois(k) != rep.t[perm[i]]:
                return Verdict(False, (k, i), "sigma^2(t_i) != t_{h(i)}")
    return Verdict(True)


@pytest.mark.parametrize(
    "build", [lambda: su2_odd_mod2(3), lambda: pointed_zn(5), lambda: su2_odd_mod2(5)],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)", "su2_odd_mod2(5)"],
)
def test_twist_symmetry_matches_oracle_on_all_lifts(build):
    for rep in all_lifts(build()):
        verdict = galois_twist_symmetry(rep)
        assert verdict.ok
        assert verdict == oracle_twist_symmetry(rep)


@pytest.mark.parametrize(
    "build",
    [lambda: su2_odd_mod2(3), lambda: su2_odd_mod2(5), lambda: pointed_zn(1)],
    # pointed_zn(1) has rational characters: every k after the first reuses
    # the permutation matched at k = 1, failing k included
    ids=["su2_odd_mod2(3)", "su2_odd_mod2(5)", "pointed_zn(1)"],
)
def test_twist_symmetry_witness_on_perturbed_twists(build):
    failures = set()
    for rep in all_lifts(build())[:3]:
        for i in range(rep.rank):
            for factor in (-ONE, zeta(3), zeta(7)):
                t = list(rep.t)
                t[i] = t[i] * factor
                level = lcm(*(v.root_of_unity_order() for v in t))
                bent = replace(rep, t=tuple(t), level=level)
                verdict = galois_twist_symmetry(bent)
                assert verdict == oracle_twist_symmetry(bent)
                if not verdict.ok:
                    failures.add(verdict.witness)
    assert len(failures) > 1


@pytest.mark.parametrize(
    "build", [lambda: su2_odd_mod2(3), lambda: pointed_zn(5)],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)"],
)
def test_twist_symmetry_compares_logs_not_galois_images(build, monkeypatch):
    # besides the log's conjugate (k = -1), no Galois image of a twist is taken
    calls = []
    galois = Cyclotomic.galois

    def spy(self, k):
        calls.append((self, k))
        return galois(self, k)

    for rep in all_lifts(build())[:4]:
        calls.clear()
        monkeypatch.setattr(Cyclotomic, "galois", spy)
        verdict = galois_twist_symmetry(rep)
        monkeypatch.setattr(Cyclotomic, "galois", galois)
        assert verdict == oracle_twist_symmetry(rep)
        twists = {id(t) for t in rep.t}
        assert all(k == -1 for x, k in calls if id(x) in twists)


@pytest.mark.parametrize(
    "build", [lambda: su2_odd_mod2(3), lambda: pointed_zn(5), lambda: pointed_zn(1)],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)", "pointed_zn(1)"],
)
def test_twist_symmetry_by_galois_images_on_hand_built_twists(build):
    # a rep whose twists are all roots of unity of order dividing the level
    # agrees with the oracle; any other is refused, naming the bent twist.
    # t * zeta_3 + t = -t * zeta_3^2 keeps the level but may leave its roots
    # of unity, where sigma_(k^2 mod level) is not sigma_k twice
    refused = set()
    for rep in all_lifts(build())[:3]:
        for factor in (2, 3):
            wider = replace(rep, level=factor * rep.level)
            assert outcome(galois_twist_symmetry, wider) == outcome(oracle_twist_symmetry, wider)
        bends = (
            lambda t: t * 2, lambda t: t + ONE, lambda t: t * t + t, lambda t: t * zeta(3) + t
        )
        for i in range(rep.rank):
            for b, bend in enumerate(bends):
                t = list(rep.t)
                t[i] = bend(t[i])
                bent = replace(rep, t=tuple(t))
                if all(v ** bent.level == ONE for v in bent.t):
                    assert outcome(galois_twist_symmetry, bent) == outcome(oracle_twist_symmetry, bent)
                else:
                    with pytest.raises(ValueError, match=f"^t_{i} is not a root of unity"):
                        galois_twist_symmetry(bent)
                    refused.add(b)
    assert refused == {0, 1, 2, 3}
