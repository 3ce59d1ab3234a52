import cmath
import hashlib
import json
import math
import random

import pytest

from moddata import _matrix as mat
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, zeta
from moddata.catalog import su2_odd_mod2
from moddata.modular_data import ModularDatum, derived_scalars, replace
from moddata.sl2z_reps import (
    _TABLE_ROWS,
    ModularRep,
    NotModularRepresentation,
    NotTabulatedError,
    all_lifts,
    inadmissible_psi,
    normalize,
    obstruction_120,
    signed_perm_match,
    spectra_connectivity,
    spectra_lookup,
    verify_relations,
)
from _oracles import mpmath_complex_eval

TRIVIAL = ModularDatum(1, 1, (0,), ((ONE,),))


class TestNormalize:
    def test_trivial(self):
        rep = normalize(TRIVIAL)
        assert rep.s == ((ONE,),)
        assert rep.t == (ONE,)
        assert rep.parity == "even" and rep.level == 1

    def test_su2_9_canonical(self, su2_9):
        rep = normalize(su2_9)
        assert rep.level % 11 == 0 and 132 % rep.level == 0
        assert verify_relations(rep.s, rep.t).ok
        # canonical lift is s = S/D with D > 0
        d_root = 1 / rep.s[0][0]
        assert d_root * d_root == derived_scalars(su2_9).global_dim_sq
        assert d_root == d_root.conjugate() and mpmath_complex_eval(d_root).real > 0

    def test_self_dual_even_lift(self, su2_9, su2_4_all):
        # self-dual data admit an even lift; the canonical one is even
        assert normalize(su2_9).parity == "even"
        assert normalize(su2_4_all[0]).parity == "even"

    def test_twelve_lifts(self, su2_4_all):
        reps = all_lifts(su2_4_all[0])
        assert len(reps) == 12
        base = normalize(su2_4_all[0])
        thetas = su2_4_all[0].thetas
        for rep in reps:
            assert verify_relations(rep.s, rep.t).ok
            ratio = rep.t[0]  # theta_0 = 1, so t_0 is the scalar x/zeta
            assert all(rep.t[j] == ratio * thetas[j] for j in range(5))

    def test_projective_order_is_torder(self, catalog_rank5):
        # smallest N with t^N scalar equals ord(T)
        for _, datum in catalog_rank5:
            rep = normalize(datum)
            N = datum.ord_t
            for n in range(1, N + 1):
                powers = {(v ** n) * (rep.t[0] ** n).inverse() for v in rep.t}
                if powers == {ONE}:
                    assert n == N
                    break
            else:
                pytest.fail("no projective period found")

    def test_level_divisibility(self, catalog_rank5):
        for _, datum in catalog_rank5:
            N = datum.ord_t
            for rep in all_lifts(datum):
                assert rep.level % N == 0 and (12 * N) % rep.level == 0

    def test_level_must_be_the_order_of_t(self):
        s = ((ONE,),)
        assert ModularRep(1, s, 6, (-1,), "even").t_exponents == (5,)
        for level, exps in ((2, (0,)), (6, (2,)), (6, (0, 2, 4)), (0, (0,)), (-3, (1,))):
            with pytest.raises(NotModularRepresentation):
                ModularRep(1, s, level, exps, "even")
        rep = normalize(su2_odd_mod2(3))
        doubled = tuple(2 * e for e in rep.t_exponents)  # t itself, read at level 42
        with pytest.raises(NotModularRepresentation, match="^level 42 is not the order of t$"):
            replace(rep, level=2 * rep.level, t_exponents=doubled)

    def test_rejects_broken_data(self, su2_9):
        rows = [list(row) for row in su2_9.S]
        rows[1][1] = rows[1][1] + 1
        rows_t = tuple(tuple(r) for r in rows)
        bad = ModularDatum(5, 11, su2_9.t_exponents, rows_t)
        with pytest.raises(NotModularRepresentation):
            normalize(bad)


class TestConnectivity:
    def test_catalog_lifts_connected(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert spectra_connectivity(normalize(datum)).ok

    def test_block_diagonal_counterexample(self):
        s = ((ONE, ZERO), (ZERO, ONE))
        rep = ModularRep(2, s, 35, (7, 5), "even")  # (zeta_5, zeta_7)
        verdict = spectra_connectivity(rep)
        assert not verdict.ok

    def test_rank_one(self):
        rep = ModularRep(1, ((ONE,),), 1, (0,), "even")
        assert spectra_connectivity(rep).ok


class TestObstruction120:
    def test_su2_9_scan(self, su2_9):
        scan = obstruction_120(normalize(su2_9))
        assert scan.subdegree == 3
        assert all(o == 33 for o in scan.eigenvalue_orders)
        # no eigenvalue order divides 120, so every hypothetical split is obstructed
        assert scan.all_obstructed

    def test_all_77th_roots(self):
        rep = ModularRep(3, mat.eye(3), 77, (1, 2, 3), "even")
        assert rep.t == (zeta(77), zeta(77, 2), zeta(77, 3))
        scan = obstruction_120(rep)
        assert scan.all_obstructed and not scan.split_allowed

    def test_rank3_with_one(self):
        rep = ModularRep(3, mat.eye(3), 77, (0, 1, 76), "even")
        assert rep.t == (ONE, zeta(77), zeta(77, 76))
        scan = obstruction_120(rep)
        assert scan.split_allowed

    def test_rank_too_small(self):
        rep = ModularRep(2, mat.eye(2), 2, (0, 1), "even")
        with pytest.raises(ValueError):
            obstruction_120(rep)


class TestSpectraTable:
    def test_level_5_degree_2_odd(self):
        rows = spectra_lookup(2, 5, "odd")
        assert len(rows) == 1
        assert rows[0].spectra == (
            frozenset({zeta(5), zeta(5, 4)}),
            frozenset({zeta(5, 2), zeta(5, 3)}),
        )

    def test_level_2_degree_2_even(self):
        rows = spectra_lookup(2, 2, "even")
        assert rows[0].spectra == (frozenset({ONE, -ONE}),)

    def test_level_7_degree_3_even(self):
        rows = spectra_lookup(3, 7, "even")
        first, second = rows[0].spectra
        assert first == frozenset({zeta(7, 2), zeta(7, 1), zeta(7, 4)})
        assert second == frozenset({v.conjugate() for v in first})

    def test_not_tabulated(self):
        with pytest.raises(NotTabulatedError):
            spectra_lookup(2, 6, "even")
        with pytest.raises(NotTabulatedError):
            spectra_lookup(5, 5, "even")

    def test_nonexistence_is_empty(self):
        assert spectra_lookup(2, 16, "even") == []
        assert spectra_lookup(2, 7, "odd") == []

    def test_spectrum_sizes_match_degree(self):
        for row in _TABLE_ROWS:
            for spec in row.spectra:
                assert len(spec) == row.degree

    def test_values_have_level_compatible_order(self):
        for row in _TABLE_ROWS:
            for spec in row.spectra:
                for v in spec:
                    order = v.root_of_unity_order()
                    assert order is not None
                    assert (2 * row.level * 3) % order == 0 or row.level % order == 0

    def test_float_render_matches_exponentials(self):
        from _oracles import PRINTED_TABLE_PI_FRACTIONS, match_rendered_spectra

        seen = set()
        for row in _TABLE_ROWS:
            key = (row.degree, row.parity, row.level)
            assert key in PRINTED_TABLE_PI_FRACTIONS, key
            seen.add(key)
            expected_sets = [
                {cmath.exp(1j * math.pi * f) for f in fracs}
                for fracs in PRINTED_TABLE_PI_FRACTIONS[key]
            ]
            rendered = [
                {v.complex_eval() for v in spec} for spec in row.spectra
            ]
            assert match_rendered_spectra(rendered, expected_sets, 1e-12), key
        assert seen == set(PRINTED_TABLE_PI_FRACTIONS)


def _certificate_sha256(cert):
    rep = cert.rep
    text = json.dumps(
        {
            "s": [[v.to_json() for v in row] for row in rep.s],
            "level": rep.level,
            "t_exponents": list(rep.t_exponents),
            "parity": rep.parity,
            "sqrt_conductor": cert.sqrt_conductor,
            "inadmissible": cert.inadmissible,
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


# recorded when the relations were still checked on s itself, over Q(zeta_p, sqrt(p+1))
PSI_CERTIFICATE_SHA256 = {
    5: "e4d381eaff8cc1139d6f99504447ef20f5ce4455e7355660f663e5ee225e7b41",
    7: "cf0535816a254220003eed425c9095b830d6dc2e53de00029f2b96adcbbe22bd",
    11: "64d3901c8eec02c181cecb22ba090178e189a69623f132c7972258932d19ee47",
    13: "3461ba3c1bd40d59a7278d096413a8b1a7bafbc5ee9cb950528abbf67c58ffbb",
    17: "74f01de727f8a3ff569e6c9cbc9df510e3b702da53a262a202745751b3cbdd51",
    19: "7533c649e7fa1783008b9245b0d34739fc715e6d6829f9d97aaba68949b9144a",
}


class TestInadmissiblePsi:
    @pytest.mark.parametrize("p", sorted(PSI_CERTIFICATE_SHA256))
    def test_certificate_pinned(self, p):
        assert _certificate_sha256(inadmissible_psi(p)) == PSI_CERTIFICATE_SHA256[p]

    def test_p5_certificate(self):
        cert = inadmissible_psi(5)
        assert cert.sqrt_conductor == 24
        assert cert.inadmissible
        assert cert.rep.level == 5
        assert verify_relations(cert.rep.s, cert.rep.t).ok

    def test_p7_certificate(self):
        cert = inadmissible_psi(7)
        # sqrt(8) = 2 sqrt(2) has conductor 8
        assert cert.sqrt_conductor == 8
        assert cert.inadmissible

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            inadmissible_psi(3)
        with pytest.raises(ValueError):
            inadmissible_psi(9)

    def test_s00_value(self):
        from fractions import Fraction

        cert = inadmissible_psi(5)
        assert cert.rep.s[0][0] == Cyclotomic.from_rational(Fraction(-1, 5))


class TestSignedPermMatch:
    def test_self_match(self, su2_9):
        rep = normalize(su2_9)
        result = signed_perm_match(rep, rep)
        assert result is not None
        assert result.perm == (0, 1, 2, 3, 4)
        assert all(s == result.signs[0] for s in result.signs)

    def test_conjugate_pair_no_match(self, su2_9):
        from moddata.catalog import su2_odd_mod2

        rep1 = normalize(su2_9)
        rep2 = normalize(su2_odd_mod2(5, conj=10))  # complex conjugate datum
        assert signed_perm_match(rep1, rep2) is None

    def test_round_trip_recovery(self, su2_9):
        # conjugating by a signed permutation U gives
        # s2[a][b] = signs[a] signs[b] s1[perm[a]][perm[b]], t2[a] = t1[perm[a]]
        rng = random.Random(11)
        rep = normalize(su2_9)
        for _ in range(3):
            perm = list(range(5))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(5)]
            s2 = tuple(
                tuple(
                    signs[a] * signs[b] * rep.s[perm[a]][perm[b]]
                    for b in range(5)
                )
                for a in range(5)
            )
            exps2 = tuple(rep.t_exponents[perm[a]] for a in range(5))
            rep2 = replace(rep, S=s2, lam=ONE, t_exponents=exps2)
            t2 = rep2.t
            assert t2 == tuple(rep.t[perm[a]] for a in range(5))
            recovered = signed_perm_match(rep, rep2)
            assert recovered is not None
            # the eigenvalue-matching permutation is the inverse relabeling
            assert all(t2[recovered.perm[i]] == rep.t[i] for i in range(5))
            assert all(perm[recovered.perm[i]] == i for i in range(5))

    def test_equal_exponents_at_different_levels_do_not_match(self):
        # (1, zeta_3) and (1, zeta_6) are different spectra with the same exponents
        rep3 = ModularRep(2, mat.eye(2), 3, (0, 1), "even")
        rep6 = replace(rep3, level=6)
        assert signed_perm_match(rep3, rep6) is None
        assert signed_perm_match(rep6, replace(rep6, t_exponents=(1, 0))).perm == (1, 0)

    def test_degenerate_rejected(self):
        rep = ModularRep(2, mat.eye(2), 1, (0, 0), "even")
        with pytest.raises(ValueError):
            signed_perm_match(rep, rep)
