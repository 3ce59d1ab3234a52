"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured runtime.  All comparisons are exact unless a float
tolerance is part of the criterion itself."""

import cmath
import math
import time

from moddata.catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from moddata.classifier import (
    grothendieck_equiv,
    integral_dimension_search,
    vanishing_sum_scan,
)
from moddata.cyclotomic import ONE, zeta
from moddata.field_theory import GroupShape, enumerate_levels
from moddata.galois import compute_profile, cycle_type, galois_twist_symmetry
from moddata.modular_data import (
    cauchy_prime_support,
    check_admissible,
    derived_scalars,
    fs_exponent,
    verlinde_fusion,
)
from moddata.sl2z_reps import (
    _TABLE_ROWS,
    ModularRep,
    all_lifts,
    inadmissible_psi,
    spectra_connectivity,
    spectra_lookup,
    verify_relations,
)


class Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status}  ({elapsed:6.2f}s)  {self.description}")
        return False


def test_criterion_1_su2_9_mod2():
    with Criterion(1, "SU(2)_9/Z_2: admissible, FSexp = ord(T) = 11, Gal = Z5, Cauchy {11}") as c:
        datum = su2_odd_mod2(5)
        report = check_admissible(datum)
        assert report.passed, report.format_table()
        assert datum.ord_t == 11
        assert fs_exponent(datum, verlinde_fusion(datum)) == 11
        profile = compute_profile(datum)
        image = profile.image()
        assert len(image) == 5
        generator = next(p for p in image if p != tuple(range(5)))
        cycles = cycle_type(generator)
        assert len(cycles) == 1 and len(cycles[0]) == 5 and 0 in cycles[0]
        support = cauchy_prime_support(datum)
        assert support.norm_primes == frozenset({11})
        assert support.torder_primes == frozenset({11})
        assert time.monotonic() - c.start < 10.0


def test_criterion_2_su2_4_family():
    with Criterion(2, "SU(2)_4 family: 16 admissible pairs, D^2 = 12, one fusion class, eps = (1,-1,-1)") as c:
        data = su2_4_family_all()
        assert len(data) == 16 and len(set(data)) == 16
        fusions = []
        for datum in data:
            assert check_admissible(datum).passed
            assert derived_scalars(datum).global_dim_sq == 12
            fusions.append(verlinde_fusion(datum))
        base = fusions[0]
        for other in fusions[1:]:
            assert grothendieck_equiv(base, other) is not None
        for datum in data:
            image = compute_profile(datum).image()
            assert image == {(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)}
            dims = datum.dims
            eps = tuple(
                1 if datum.S[1][j] == dims[j] else -1 for j in range(2, 5)
            )
            assert eps == (1, -1, -1)
        assert time.monotonic() - c.start < 30.0


def test_criterion_3_level_enumeration():
    with Criterion(3, "level sets: p=5 -> {11|n|264}, p=3 -> {7|n|168} u {9|n|72}, multiquadratic | 240"):
        got5 = enumerate_levels(GroupShape(5, (1,)))
        assert got5 == frozenset(n for n in range(1, 265) if n % 11 == 0 and 264 % n == 0)
        got3 = enumerate_levels(GroupShape(3, (1,)))
        expect3 = frozenset(
            n for n in range(1, 169) if n % 7 == 0 and 168 % n == 0
        ) | frozenset(n for n in range(1, 73) if n % 9 == 0 and 72 % n == 0)
        assert got3 == expect3
        for m in (1, 2, 3, 4):
            levels = enumerate_levels(GroupShape.elementary2(m))
            assert levels and all(240 % n == 0 for n in levels)


def test_criterion_4_twist_symmetry_all_lifts():
    with Criterion(4, "sigma^2(t_i) = t_{h(i)} for every unit and every lift of every catalog datum"):
        for _, datum in rank5_catalog():
            for rep in all_lifts(datum):
                verdict = galois_twist_symmetry(rep)
                assert verdict.ok, (datum.t_exponents, verdict.witness)


def test_criterion_5_spectra_connectivity():
    with Criterion(5, "spectra connectivity on all catalog lifts; block-diagonal rejected"):
        for _, datum in rank5_catalog():
            for rep in all_lifts(datum):
                assert spectra_connectivity(rep).ok
        from moddata.cyclotomic import ZERO

        block = ModularRep(((ONE, ZERO), (ZERO, ONE)), 35, (7, 5), "even")  # t = (zeta_5, zeta_7)
        assert not spectra_connectivity(block).ok


def test_criterion_6_table_round_trip():
    with Criterion(6, "Table round trip at 15 digits within 1e-12; (2,5,odd) exact"):
        from _oracles import PRINTED_TABLE_PI_FRACTIONS, match_rendered_spectra

        covered = set()
        for row in _TABLE_ROWS:
            key = (row.degree, row.parity, row.level)
            expected = [
                {cmath.exp(1j * math.pi * f) for f in fracs}
                for fracs in PRINTED_TABLE_PI_FRACTIONS[key]
            ]
            rendered = [{v.complex_eval() for v in s} for s in row.spectra]
            assert match_rendered_spectra(rendered, expected, 1e-12), key
            covered.add(key)
        assert covered == set(PRINTED_TABLE_PI_FRACTIONS)
        rows = spectra_lookup(2, 5, "odd")
        assert len(rows) == 1 and rows[0].spectra == (
            frozenset({zeta(5, 1), zeta(5, 4)}),
            frozenset({zeta(5, 2), zeta(5, 3)}),
        )


def test_criterion_7_rank7_z5_lemma():
    with Criterion(7, "rank-7 integral with Gal = Z/5Z over primes {2,3,11}: empty") as c:
        result = integral_dimension_search(7, (1, 5, 1), {2, 3, 11})
        assert result.survivors == ()
        assert time.monotonic() - c.start < 60.0


def test_criterion_8_fusion_invariants():
    with Criterion(8, "fusion symmetries, unit law, associativity, commuting N_i on all catalog fusions"):
        for _, datum in rank5_catalog():
            fusion = verlinde_fusion(datum)
            assert fusion.verify_invariants() == []
        for p in (2, 3):
            fusion = verlinde_fusion(su2_odd_mod2(p))
            assert fusion.verify_invariants() == []
        assert verlinde_fusion(pointed_zn(3)).verify_invariants() == []


def test_criterion_9_inadmissibility_certificates():
    with Criterion(9, "psi(5), psi(7): relations verified, conductor(sqrt(p+1)) does not divide p"):
        for p, cond in ((5, 24), (7, 8)):
            cert = inadmissible_psi(p)
            assert verify_relations(cert.rep.s, cert.rep.t).ok
            assert cert.sqrt_conductor == cond
            assert p % cert.sqrt_conductor != 0
            assert cert.inadmissible


def test_criterion_10_vanishing_sum_scan():
    with Criterion(10, "vanishing-sum scan at M = 24: zero counterexamples") as c:
        assert vanishing_sum_scan(24) == []
        assert time.monotonic() - c.start < 120.0
