import random
from math import gcd
from pathlib import Path

import pytest

from _oracles import dual_from_s, g_matrix, orbit_field_degree
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, units_mod, zeta
from moddata.galois import (
    GaloisProfile,
    classify_dimensions,
    compute_profile,
    cycle_type,
    exclusion_predicates,
    galois_twist_symmetry,
    sign_function,
)
from moddata.modular_data import (
    FusionComputationError,
    ModularDatum,
    NotGaloisStable,
    _characters,
    _match_permutation,
    compose,
    derived_scalars,
    load,
    replace,
    verlinde_fusion,
)
from moddata.sl2z_reps import all_lifts, normalize


GOLDEN_REPORT_DATA = Path(__file__).resolve().parent / "golden_reports" / "data"
MUTATION_FACTORS = (
    -ONE, Cyclotomic.from_rational(2), Cyclotomic.from_rational(1) / 2, zeta(3), zeta(4), zeta(5)
)


@pytest.fixture(scope="module")
def profiled(catalog_rank5, data_dir):
    """(datum, profile) for every datum with a Galois profile among the
    data/ files, the failing report data and 20 seeded single-entry
    mutations (S_ij = S_ji scaled) of each catalog datum."""
    data = [
        load(path)
        for directory in (data_dir, GOLDEN_REPORT_DATA)
        for path in sorted(directory.glob("*.json"))
    ]
    rng = random.Random(19)
    for _, datum in catalog_rank5:
        for _ in range(20):
            i, j = rng.randrange(datum.rank), rng.randrange(1, datum.rank)
            rows = [list(row) for row in datum.S]
            rows[i][j] = rows[j][i] = rows[i][j] * rng.choice(MUTATION_FACTORS)
            S = tuple(map(tuple, rows))
            data.append(ModularDatum(datum.rank, datum.torder, datum.t_exponents, S))
    out = []
    for datum in data:
        try:
            out.append((datum, compute_profile(datum)))
        except NotGaloisStable:
            pass
    assert len(out) > 100
    return out


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

    # condition (vi) of check_admissible relies on these facts unchecked: h is
    # a homomorphism, so its image is abelian, and a sigma_k with
    # h_sigma = id fixes every S entry
    def test_homomorphism(self, profiled):
        for datum, profile in profiled:
            c = profile.field_conductor
            for k1 in profile.units:
                for k2 in profile.units:
                    assert profile.perms[(k1 * k2) % c if c > 1 else 1] == compose(
                        profile.perms[k1], profile.perms[k2]
                    )
            entries = [v for row in datum.S for v in row]
            for k, perm in profile.perms.items():
                if perm == tuple(range(datum.rank)):
                    assert all(v.galois(k) == v for v in entries)

    def test_image_abelian(self, profiled):
        for _, profile in profiled:
            image = profile.image()
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

    def test_g_matrix_is_the_signed_permutation(self, catalog_rank5):
        # G_sigma = sigma(s) s^-1 has the entry eps(i) at (i, h_sigma(i)) and
        # zeros elsewhere, for every unit k modulo the level of the lift
        for _, datum in catalog_rank5:
            rep = normalize(datum)
            profile = compute_profile(datum)
            c = profile.field_conductor
            for k in units_mod(rep.level):
                perm = profile.perms[k % c if c > 1 else 1]
                eps = sign_function(rep, k)
                expected = tuple(
                    tuple(ONE * eps[i] if j == perm[i] else ZERO for j in range(rep.rank))
                    for i in range(rep.rank)
                )
                assert g_matrix(rep, k) == expected, (datum, k)

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

    def test_fp_column_with_a_complex_first_row_entry(self):
        # the values S_i1 / S_01 of column 1 are (1, 2), those of column 0
        # are (1, i): only S_11 conj(S_01) = 2, not S_11 S_01 = -2, is positive
        i = zeta(4)
        datum = ModularDatum(2, 1, (0, 0), ((ONE, i), (i, i + i)))
        profile = GaloisProfile(1, (1,), {1: (0, 1)}, ((0,), (1,)), {})
        assert classify_dimensions(datum, profile).fp_column == 1


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
        # eps_j is decided by S_1j == +-d_j, so no d_j is inverted
        assert len(inverted) == 1 and inverted[0] is d1

    def test_eps_witness_keeps_the_quotient(self, su2_4_all):
        # S_13 + 1 is not +-d_3: the witness still prints S_13 / d_3
        datum = su2_4_all[0]
        profile = compute_profile(datum)
        rows = [list(row) for row in datum.S]
        rows[1][3] = rows[3][1] = rows[1][3] + ONE
        verdict = exclusion_predicates(replace(datum, S=tuple(map(tuple, rows))), profile)[-1]
        assert verdict.name == "eps_j = S_1j/d_j in {+-1}" and not verdict.ok
        assert verdict.witness == "S[1][3]/d_3 = -1 + 2/3*z12 - 1/3*z12^3"

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

    @pytest.mark.parametrize(
        "build, image, has_fusion, witness",
        [
            (lambda: su2_odd_mod2(5), (1, 2, 0, 4, 3), True, "found (1, 2, 0, 4, 3)"),
            (lambda: pointed_zn(5), (1, 4, 3, 2, 0), True, ""),
            (lambda: load(GOLDEN_REPORT_DATA / "su2_9_mod2_S12_xm1.json"), (1, 2, 0, 4, 3), False, "found (1, 2, 0, 4, 3)"),
        ],
        ids=["self-dual-swap", "dual-swap", "no-fusion-rules"],
    )
    def test_synthetic_self_dual_pattern(self, build, image, has_fusion, witness):
        """(0 1 2)(3 4) swaps the self-dual labels 3, 4 of su2_odd_mod2(5)
        and fires; (0 1 4)(2 3) swaps the dual pair 2* = 3 of pointed_zn(5)
        and passes; without fusion rules every label may be self-dual, so
        the swap fires."""
        datum = build()
        if not has_fusion:
            with pytest.raises(FusionComputationError):
                verlinde_fusion(datum)
        verdict = exclusion_predicates(datum, GaloisProfile(1, (1,), {1: image}, (), {}))[1]
        assert verdict.name == "no (r-2 cycle through 0)(a b) element"
        assert (verdict.ok, verdict.witness) == (not witness, witness)


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


class TestDualFromS:
    def test_catalog_matches_oracle_and_fusion(self, catalog_rank5, data_dir):
        data = [d for _, d in catalog_rank5]
        data += [load(path) for path in sorted(data_dir.glob("*.json"))]
        for datum in data:
            assert dual_from_s(datum) == verlinde_fusion(datum).dual
