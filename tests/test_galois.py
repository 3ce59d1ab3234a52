from math import gcd

import pytest

from moddata.cyclotomic import ONE, units_mod
from moddata.galois import (
    GaloisProfile,
    NotGaloisStable,
    classify_dimensions,
    compose,
    compute_profile,
    cycle_type,
    exclusion_predicates,
    g_matrix,
    galois_twist_symmetry,
    orbit_field_degree,
    sign_function,
)
from moddata.modular_data import derived_scalars, verlinde_fusion
from moddata.sl2z_reps import all_lifts, normalize


class TestProfile:
    def test_su2_9_five_cycle(self, su2_9):
        profile = compute_profile(su2_9)
        assert profile.field_conductor == 11
        image = profile.image()
        assert len(image) == 5
        generator = next(p for p in image if p != tuple(range(5)))
        assert len(cycle_type(generator)[0]) == 5  # a 5-cycle through 0
        assert profile.orbits == ((0, 1, 2, 3, 4),)

    def test_pointed_fixes_zero(self, pointed_z5):
        profile = compute_profile(pointed_z5)
        assert all(p[0] == 0 for p in profile.perms.values())
        assert profile.orbit_of(0) == (0,)

    def test_su2_4_group(self, su2_4_all):
        profile = compute_profile(su2_4_all[0])
        assert profile.image() == {
            (0, 1, 2, 3, 4),
            (1, 0, 2, 3, 4),
        }
        assert profile.orbits == ((0, 1), (2,), (3,), (4,))

    def test_homomorphism(self, catalog_rank5):
        for _, datum in catalog_rank5:
            profile = compute_profile(datum)
            c = profile.field_conductor
            for k1 in profile.units:
                for k2 in profile.units:
                    assert profile.perms[(k1 * k2) % c if c > 1 else 1] == compose(
                        profile.perms[k1], profile.perms[k2]
                    )

    def test_image_abelian(self, catalog_rank5):
        for _, datum in catalog_rank5:
            image = compute_profile(datum).image()
            for a in image:
                for b in image:
                    assert compose(a, b) == compose(b, a)

    def test_conjugation_is_dual(self, catalog_rank5):
        for _, datum in catalog_rank5:
            profile = compute_profile(datum)
            c = profile.field_conductor
            fusion = verlinde_fusion(datum)
            assert profile.perms[(-1) % c if c > 1 else 1] == fusion.dual

    def test_duplicate_columns_rejected(self):
        from moddata.modular_data import ModularDatum

        datum = ModularDatum.__new__(ModularDatum)
        object.__setattr__(datum, "rank", 2)
        object.__setattr__(datum, "torder", 1)
        object.__setattr__(datum, "t_exponents", (0, 0))
        object.__setattr__(datum, "S", ((ONE, ONE), (ONE, ONE)))
        with pytest.raises(NotGaloisStable):
            compute_profile(datum)


class TestSigns:
    def test_identity_all_plus(self, su2_9):
        rep = normalize(su2_9)
        assert sign_function(rep, 1) == (1, 1, 1, 1, 1)

    def test_signs_consistent_with_profile(self, su2_9):
        rep = normalize(su2_9)
        profile = compute_profile(su2_9, rep=rep)
        assert set(profile.signs) == set(profile.units)
        for k, eps in profile.signs.items():
            assert all(e in (1, -1) for e in eps)

    def test_g_matrix_is_signed_permutation(self, su2_4_all):
        rep = normalize(su2_4_all[0])
        n = rep.level
        for k in units_mod(n):
            g = g_matrix(rep, k)
            for row in g:
                nonzero = [v for v in row if v]
                assert len(nonzero) == 1
                assert nonzero[0] == ONE or nonzero[0] == -ONE

    def test_gidrem_trivial_perm_gives_scalar(self, catalog_rank5):
        # h_sigma = id forces G_sigma = +-I
        from moddata.galois import _characters, _match_permutation

        for _, datum in catalog_rank5:
            rep = normalize(datum)
            cols = _characters(rep.s)
            identity = tuple(range(datum.rank))
            for k in units_mod(rep.level):
                if _match_permutation(cols, k) != identity:
                    continue
                g = g_matrix(rep, k)
                diag = {g[i][i] for i in range(datum.rank)}
                assert len(diag) == 1 and (ONE in diag or -ONE in diag)
                for i in range(datum.rank):
                    for j in range(datum.rank):
                        if i != j:
                            assert not g[i][j]

    def test_order2_fixed_point_symmetry(self, su2_4_all):
        # S_ij = eps(i) eps(j) S_{h(i) h(j)} and S_ii = S_{h(i)h(i)}
        datum = su2_4_all[0]
        rep = normalize(datum)
        profile = compute_profile(datum, rep=rep)
        swap = next(p for p in profile.image() if p != tuple(range(5)))
        k = next(k for k, p in profile.perms.items() if p == swap)
        eps = profile.signs[k]
        for i in range(5):
            assert datum.S[i][i] == datum.S[swap[i]][swap[i]]
            for j in range(5):
                assert datum.S[i][j] == eps[i] * eps[j] * datum.S[swap[i]][swap[j]]


class TestTwistSymmetry:
    def test_canonical_lifts(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert galois_twist_symmetry(normalize(datum)).ok

    def test_all_twelve_lifts_su2_4(self, su2_4_all):
        for rep in all_lifts(su2_4_all[0]):
            assert galois_twist_symmetry(rep).ok


class TestElementary2Group:
    def test_catalog(self, catalog_rank5):
        # Gal(F_t / F_S) is an elementary 2-group on every canonical lift
        for _, datum in catalog_rank5:
            rep = normalize(datum)
            n = rep.level
            for k in units_mod(n):
                fixes_s = all(
                    v.galois(k) == v
                    for row in datum.S
                    for v in row
                    if gcd(k, v.order) == 1
                )
                if fixes_s:
                    assert (k * k) % n == 1 % n


class TestClassification:
    def test_pointed_integral(self, pointed_z5):
        profile = compute_profile(pointed_z5)
        assert classify_dimensions(pointed_z5, profile).label == "integral"

    def test_su2_4_weakly_integral(self, su2_4_all):
        datum = su2_4_all[0]  # nu1 = +1: positive dims
        result = classify_dimensions(datum, compute_profile(datum))
        assert result.label == "weakly-integral"
        assert derived_scalars(datum).global_dim_sq == 12
        assert result.dims_constant_on_orbits is True

    def test_su2_9_generic(self, su2_9):
        result = classify_dimensions(su2_9, compute_profile(su2_9))
        assert result.label == "generic"
        assert result.fp_column == 0 and result.fp_unit is not None


class TestExclusionPredicates:
    def test_su2_4_clauses(self, su2_4_all):
        datum = su2_4_all[0]
        verdicts = exclusion_predicates(datum, compute_profile(datum))
        names = [v.name for v in verdicts]
        assert "eps signs not all equal" in names
        assert all(v.ok for v in verdicts)

    def test_transposition_lemma_inverts_d1_once(self, su2_4_all, monkeypatch):
        from moddata.cyclotomic import Cyclotomic

        datum = su2_4_all[0]
        profile = compute_profile(datum)
        expected = exclusion_predicates(datum, profile)
        inverted = []
        real = Cyclotomic.inverse

        def counting(self):
            inverted.append(self)
            return real(self)

        monkeypatch.setattr(Cyclotomic, "inverse", counting)
        assert exclusion_predicates(datum, profile) == expected
        swap = next(cycle_type(p)[0] for p in profile.image() if cycle_type(p))
        d1 = derived_scalars(datum).dims[swap[1] if swap[0] == 0 else swap[0]]
        assert sum(v is d1 for v in inverted) == 1

    def test_su2_9_vacuous(self, su2_9):
        verdicts = exclusion_predicates(su2_9, compute_profile(su2_9))
        assert len(verdicts) == 2  # only the two pattern predicates apply
        assert all(v.ok for v in verdicts)

    def test_synthetic_forbidden_pattern_fires(self, su2_9):
        bad = (1, 0, 3, 4, 2)  # (0 1)(2 3 4)
        profile = GaloisProfile(
            11, (1,), {1: bad}, ((0, 1), (2, 3, 4)), {}
        )
        verdicts = exclusion_predicates(su2_9, profile)
        fired = [v for v in verdicts if not v.ok]
        assert any("(0 a)(r-2 cycle)" in v.name for v in fired)


class TestOrbitFields:
    def test_degree_equals_orbit_size(self, catalog_rank5):
        for _, datum in catalog_rank5:
            profile = compute_profile(datum)
            for j in range(datum.rank):
                assert orbit_field_degree(datum, j) == len(profile.orbit_of(j))

    def test_self_dual_orbit_closure(self, catalog_rank5):
        for _, datum in catalog_rank5:
            profile = compute_profile(datum)
            dual = verlinde_fusion(datum).dual
            for orbit in profile.orbits:
                selfdual = {j for j in orbit if dual[j] == j}
                assert selfdual in (set(), set(orbit))
