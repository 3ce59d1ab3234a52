import json

import pytest

from moddata import modular_data
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, zeta
from moddata.modular_data import (
    DegenerateSError,
    FSExponentNotFound,
    FusionComputationError,
    ModularDatum,
    SchemaViolation,
    _s_facts,
    check_admissible,
    check_balancing,
    check_twist_equation,
    derived_scalars,
    fs_exponent,
    fs_indicator,
    load,
    save,
    verlinde_fusion,
)


def perturb_twist(datum, j, delta):
    exps = list(datum.t_exponents)
    exps[j] = (exps[j] + delta) % datum.torder
    return ModularDatum(datum.rank, datum.torder, tuple(exps), datum.S)


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def scale_entry(datum, i, j, factor):
    rows = [list(row) for row in datum.S]
    rows[i][j] = rows[i][j] * factor
    rows[j][i] = rows[i][j]
    return ModularDatum(
        datum.rank, datum.torder, datum.t_exponents, tuple(tuple(r) for r in rows)
    )


TRIVIAL = ModularDatum(1, 1, (0,), ((ONE,),))


class TestDatumValidation:
    def test_non_symmetric_rejected(self):
        with pytest.raises(SchemaViolation):
            ModularDatum(
                2, 3, (0, 1), ((ONE, zeta(3)), (zeta(3, 2), ONE))
            )

    def test_s00_must_be_one(self):
        two = Cyclotomic.from_rational(2)
        with pytest.raises(SchemaViolation):
            ModularDatum(1, 1, (0,), ((two,),))

    def test_theta0_must_be_one(self):
        with pytest.raises(SchemaViolation):
            ModularDatum(2, 3, (1, 0), ((ONE, ONE), (ONE, -ONE)))

    def test_ord_t(self, su2_9):
        assert su2_9.ord_t == 11
        assert TRIVIAL.ord_t == 1


class TestSerialization:
    def test_round_trip(self, su2_9, tmp_path):
        path = tmp_path / "datum.json"
        save(su2_9, path)
        assert load(path) == su2_9

    def test_save_is_deterministic(self, su2_9, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(su2_9, p1)
        save(su2_9, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_asymmetric_file_rejected(self, su2_9, tmp_path):
        data = su2_9.to_json()
        data["S"][0][1] = zeta(11, 5).to_json()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaViolation):
            load(path)

    def test_bad_twist_file_rejected(self, su2_9, tmp_path):
        data = su2_9.to_json()
        data["t_exponents"][0] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaViolation):
            load(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaViolation):
            load(path)

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_inexact_order_after_an_identical_entry_rejected(self, data_dir, order):
        # row 0 holds valid {"order": 1, "coeffs": {"0": "1"}} entries, which
        # the loader parses once; True and 1.0 hash as 1 but are refused
        doc = json.loads((data_dir / "pointed_z5.json").read_text())
        doc["S"][1][2] = doc["S"][2][1] = {"order": order, "coeffs": {"0": "1"}}
        message = f"datum: order must be an integer, not {type(order).__name__}"
        with pytest.raises(SchemaViolation) as exc:
            ModularDatum.from_json(doc)
        assert str(exc.value) == message

    def test_identical_entries_load_as_one_object(self, data_dir):
        datum = load(data_dir / "pointed_z5.json")
        assert all(v is datum.S[0][0] for v in (*datum.S[0], *(row[0] for row in datum.S)))
        assert datum.S[1][2] is datum.S[2][1]

    def test_reordered_coefficient_keys_load_as_equal_values(self, data_dir):
        doc = json.loads((data_dir / "pointed_z5.json").read_text())
        coeffs = doc["S"][1][3]["coeffs"]
        assert len(coeffs) > 1
        doc["S"][3][1] = {"order": doc["S"][1][3]["order"], "coeffs": dict(reversed(coeffs.items()))}
        datum = ModularDatum.from_json(doc)
        assert datum.S[3][1] == datum.S[1][3] and datum.S[3][1] is not datum.S[1][3]
        assert datum == load(data_dir / "pointed_z5.json")

    def test_golden_files_match_catalog(self, catalog_rank5, data_dir, tmp_path):
        for name, datum in catalog_rank5:
            golden = data_dir / f"{name}.json"
            assert golden.exists(), golden
            assert load(golden) == datum
            regenerated = tmp_path / f"{name}.json"
            save(datum, regenerated)
            assert regenerated.read_bytes() == golden.read_bytes()


class TestVerlinde:
    def test_pointed_group_law(self, pointed_z5):
        fusion = verlinde_fusion(pointed_z5)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert fusion.n(i, j, k) == (1 if (i + j) % 5 == k else 0)

    def test_same_tensor_for_all_16(self, su2_4_all):
        tensors = {verlinde_fusion(d).tensor for d in su2_4_all}
        assert len(tensors) == 1

    def test_unit_law_on_catalog(self, catalog_rank5):
        for _, datum in catalog_rank5:
            fusion = verlinde_fusion(datum)
            for j in range(fusion.rank):
                for k in range(fusion.rank):
                    assert fusion.n(0, j, k) == (1 if j == k else 0)

    def test_invariants_exhaustive(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert verlinde_fusion(datum).verify_invariants() == []

    def test_degenerate_s(self):
        with pytest.raises(DegenerateSError):
            verlinde_fusion(
                ModularDatum(2, 2, (0, 1), ((ONE, ONE), (ONE, ONE)))
            )

    def test_non_integral_witness(self, su2_9):
        bad = scale_entry(su2_9, 1, 2, Cyclotomic.from_rational(2))
        with pytest.raises(FusionComputationError):
            verlinde_fusion(bad)

    def test_dual_matches_s_conjugation(self, catalog_rank5):
        for _, datum in catalog_rank5:
            fusion = verlinde_fusion(datum)
            for i in range(datum.rank):
                for j in range(datum.rank):
                    assert datum.S[i][fusion.dual[j]] == datum.S[i][j].conjugate()

    def test_self_duality_iff_real_s(self, catalog_rank5):
        for _, datum in catalog_rank5:
            fusion = verlinde_fusion(datum)
            all_real = all(v.is_real for row in datum.S for v in row)
            assert (fusion.dual == tuple(range(datum.rank))) == all_real


class TestBalancing:
    def test_catalog_passes(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert check_balancing(datum, verlinde_fusion(datum)).ok

    def test_trivial(self):
        assert check_balancing(TRIVIAL, verlinde_fusion(TRIVIAL)).ok

    def test_perturbed_twist_fails(self, su2_9):
        bad = perturb_twist(su2_9, 1, 1)
        verdict = check_balancing(bad, verlinde_fusion(bad))
        assert not verdict.ok and verdict.witness is not None


class TestTwistEquation:
    def test_all_16_pass(self, su2_4_all):
        for datum in su2_4_all:
            assert check_twist_equation(datum).ok

    def test_trivial(self):
        assert check_twist_equation(TRIVIAL).ok

    def test_bad_theta3_fails(self, su2_4_all):
        datum = su2_4_all[0]
        exps = list(datum.t_exponents)
        exps[3] = (exps[3] + 6) % 24  # theta3 -> theta3 * i breaks theta3^2 = -nu2 nu3 i
        bad = ModularDatum(5, 24, tuple(exps), datum.S)
        verdict = check_twist_equation(bad)
        assert not verdict.ok
        assert verdict.witness == (0, 1) and verdict.name == "twist equation fails"


class TestIndicators:
    def test_nu1_is_unit_indicator(self, catalog_rank5):
        for _, datum in catalog_rank5:
            fusion = verlinde_fusion(datum)
            for k in range(datum.rank):
                expected = ONE if k == 0 else Cyclotomic.from_rational(0)
                assert fs_indicator(datum, fusion, 1, k) == expected

    def test_nu2_values_su2_9(self, su2_9):
        fusion = verlinde_fusion(su2_9)
        for k in range(5):
            nu2 = fs_indicator(su2_9, fusion, 2, k)
            assert fusion.dual[k] == k
            assert nu2 == ONE or nu2 == -ONE

    def test_periodicity(self, su2_9):
        fusion = verlinde_fusion(su2_9)
        N = su2_9.ord_t
        for n in range(1, N + 1):
            for k in range(5):
                assert fs_indicator(su2_9, fusion, n, k) == fs_indicator(
                    su2_9, fusion, n + N, k
                )

    def test_fs_exponents(self, su2_9, pointed_z5):
        assert fs_exponent(su2_9, verlinde_fusion(su2_9)) == 11
        assert fs_exponent(pointed_z5, verlinde_fusion(pointed_z5)) == 5
        assert fs_exponent(TRIVIAL, verlinde_fusion(TRIVIAL)) == 1

    def test_a_foreign_fusion_has_no_fs_exponent(self, pointed_z5):
        # with its own tensor n = ord(T) always qualifies; with the fusion
        # rules of su2_odd_mod2(5) no n <= ord(T) gives nu_n(k) = d_k
        with pytest.raises(FSExponentNotFound, match=r"^no Frobenius-Schur exponent up to ord\(T\) = 5$"):
            fs_exponent(pointed_z5, verlinde_fusion(su2_odd_mod2(5)))

    def test_fsexp_equals_ord_t_on_catalog(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert fs_exponent(datum, verlinde_fusion(datum)) == datum.ord_t


class TestAdmissibility:
    def test_su2_9_all_seven(self, su2_9):
        report = check_admissible(su2_9)
        assert report.passed
        assert [c["index"] for c in report.to_json()["conditions"]] == [1, 2, 3, 4, 5, 6, 7]

    def test_all_16_admissible(self, su2_4_all):
        for datum in su2_4_all:
            assert check_admissible(datum).passed

    def test_trivial_admissible(self):
        assert check_admissible(TRIVIAL).passed

    def test_scaled_entry_fails_early_condition(self, su2_9):
        bad = scale_entry(su2_9, 0, 1, Cyclotomic.from_rational(2))
        report = check_admissible(bad)
        failed = {i for i, _ in report.failures()}
        assert failed & {1, 3}

    def test_perturbed_twist_reported(self, su2_9):
        report = check_admissible(perturb_twist(su2_9, 2, 3))
        assert not report.passed

    def test_report_table_format(self, su2_9):
        table = check_admissible(su2_9).format_table()
        assert "admissible" in table and "(7)" in table

    def test_report_json_schema(self, su2_9):
        data = check_admissible(su2_9).to_json()
        assert data["schema"] == 1 and data["passed"] is True
        assert len(data["conditions"]) == 7


def rank2_non_integral():
    """S = [[1, 2], [2, -1]]: projectively unitary with D^2 = 5, N_11^1 = 3/2."""
    two = Cyclotomic.from_rational(2)
    return ModularDatum(2, 1, (0, 0), ((ONE, two), (two, -ONE)))


# (passed, witness) of conditions (i)-(vii), recorded when condition (i) still
# formed S * conj(S) itself
NO_FUSION = [(False, "no fusion"), (False, "no fusion")]
OFF_UNITARITY = [
    (
        lambda: scale_entry(pointed_zn(5, 1), 1, 2, 2),
        [
            (False, "S*conj(S)^t != D^2*Id"),
            (False, "(ST)^3 != p+ S^2"),
            (False, "S * conj(S)^t != D^2 * Id"),
            *NO_FUSION,
            (False, "sigma_2 sends character 1 to no column"),
            (True, ""),
        ],
    ),
    (
        lambda: scale_entry(pointed_zn(5, 1), 0, 1, 0),
        [
            (False, "S*conj(S)^t != D^2*Id"),
            (False, "(ST)^3 != p+ S^2"),
            (False, "vanishing entry in the first row of S"),
            *NO_FUSION,
            (False, "vanishing first-row entry: characters undefined"),
            (False, "supp Norm(D^2) = [2] != supp N = [5]"),
        ],
    ),
    (
        lambda: scale_entry(pointed_zn(5, 1), 0, 1, zeta(5)),
        [
            (False, "d_1 is not real"),
            (False, "(ST)^3 != p+ S^2"),
            (False, "S * conj(S)^t != D^2 * Id"),
            *NO_FUSION,
            (False, "sigma_2 sends character 0 to no column"),
            (False, "supp Norm(D^2) = [5, 41] != supp N = [5]"),
        ],
    ),
    (
        lambda: scale_entry(su2_odd_mod2(5), 1, 2, -1),
        [
            (False, "S*conj(S)^t != D^2*Id"),
            (False, "(ST)^3 != p+ S^2"),
            (False, "S * conj(S)^t != D^2 * Id"),
            *NO_FUSION,
            (False, "sigma_2 sends character 1 to no column"),
            (True, ""),
        ],
    ),
    (
        rank2_non_integral,
        [
            (True, ""),
            (False, "(ST)^3 != p+ S^2"),
            (False, "N[1,1]^1 = 3/2 is not a nonnegative integer"),
            *NO_FUSION,
            (True, ""),
            (False, "supp Norm(D^2) = [5] != supp N = []"),
        ],
    ),
]


class TestUnitarityOnce:
    @pytest.fixture
    def unitarity_calls(self, monkeypatch):
        calls = []
        real = modular_data._projectively_unitary

        def counting(facts, d2):
            calls.append(facts.S)
            return real(facts, d2)

        monkeypatch.setattr(modular_data, "_projectively_unitary", counting)
        verlinde_fusion.cache_clear()
        _s_facts.cache_clear()
        return calls

    def test_once_per_check_on_catalog(self, unitarity_calls, catalog_rank5):
        for _, datum in catalog_rank5:
            _s_facts.cache_clear()
            unitarity_calls.clear()
            assert check_admissible(datum).passed
            assert unitarity_calls == [datum.S]

    def test_once_per_distinct_s(self, unitarity_calls, data_dir):
        # the 16 su2_4_family files hold 4 distinct S, each with 4 T
        data = [load(path) for path in sorted(data_dir.glob("su2_4_family_*.json"))]
        for datum in data:
            assert check_admissible(datum).passed
        distinct = list(dict.fromkeys(datum.S for datum in data))
        assert len(data) == 16 and len(distinct) == 4 and unitarity_calls == distinct

    @pytest.mark.parametrize(
        "build, expected",
        OFF_UNITARITY,
        ids=["z5-S12x2", "z5-S01x0", "z5-S01xzeta5", "su2_9-S12x-1", "rank2-non-integral"],
    )
    def test_reports_unchanged_off_unitarity(self, unitarity_calls, build, expected):
        report = check_admissible(build())
        assert [(c.ok, c.witness) for c in report.conditions] == expected
        assert len(unitarity_calls) == 1

    def test_verlinde_conjugates_no_entry(self, monkeypatch, unitarity_calls, catalog_rank5):
        # unitarity and the tensor take conj(S) from residues at 1/g; only
        # the exact loop, run when the residue candidate fails, conjugates
        conjugated = []
        real = Cyclotomic.conjugate

        def counting(self):
            conjugated.append(self)
            return real(self)

        monkeypatch.setattr(Cyclotomic, "conjugate", counting)
        for _, datum in catalog_rank5:
            conjugated.clear()
            verlinde_fusion(datum)
            assert conjugated == []

    def test_verlinde_alone_still_refuses(self, su2_9):
        with pytest.raises(DegenerateSError, match=r"^S \* conj\(S\)\^t != D\^2 \* Id$"):
            verlinde_fusion(scale_entry(su2_9, 1, 2, -1))


class TestDerivedScalars:
    def test_gauss_product_is_global_dim(self, catalog_rank5):
        for _, datum in catalog_rank5:
            ds = derived_scalars(datum)
            assert ds.gauss_plus * ds.gauss_minus == ds.global_dim_sq

    def test_anomaly_is_root_of_unity(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert derived_scalars(datum).anomaly.is_root_of_unity

    def test_su2_4_global_dim(self, su2_4_all):
        for datum in su2_4_all:
            assert derived_scalars(datum).global_dim_sq == 12

    def test_projective_unitarity(self, su2_9):
        ds = derived_scalars(su2_9)
        r = su2_9.rank
        for i in range(r):
            for k in range(r):
                total = sum(
                    (su2_9.S[i][j] * su2_9.S[j][k].conjugate() for j in range(r)),
                    Cyclotomic.from_rational(0),
                )
                assert total == (ds.global_dim_sq if i == k else Cyclotomic.from_rational(0))

    def test_fusion_matrices_commute(self, catalog_rank5):
        for _, datum in catalog_rank5:
            fusion = verlinde_fusion(datum)
            mats = [fusion.matrix(i) for i in range(fusion.rank)]
            for a in mats:
                for b in mats:
                    assert _int_matmul(a, b) == _int_matmul(b, a)
