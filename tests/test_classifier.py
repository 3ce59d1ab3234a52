import random
from fractions import Fraction
from math import gcd

import pytest

from moddata.classifier import (
    TooLargeError,
    _all_nonzero_solution_exists,
    _integer_kernel,
    _is_perfect_square,
    classify_fusion,
    grothendieck_equiv,
    in_rank5_cases,
    integral_dimension_search,
    rank5_galois_cases,
    rank5_suite,
    relabel_fusion,
    subgroups_conjugate,
    vanishing_sum_check,
    vanishing_sum_scan,
)
from moddata.cyclotomic import Cyclotomic, ONE, zeta
from moddata.galois import compose, compute_profile
from moddata.modular_data import FusionRules, verlinde_fusion

from _oracles import dense_rational_kernel, fraction_rational_kernel


def assert_primitive_multiples(got, oracle):
    """Each integer vector is primitive and a positive rational multiple of
    the oracle's Fraction vector for the same free column."""
    assert len(got) == len(oracle)
    for vec, ref in zip(got, oracle):
        assert all(type(v) is int for v in vec)
        assert gcd(*vec) == 1, vec
        ratios = {Fraction(v) / r for v, r in zip(vec, ref) if r}
        assert all(v == 0 for v, r in zip(vec, ref) if not r), (vec, ref)
        assert len(ratios) == 1 and ratios.pop() > 0, (vec, ref)


class TestRank5Cases:
    def test_seven_cases(self):
        cases = rank5_galois_cases()
        assert len(cases) == 7
        assert sorted(len(c) for c in cases) == [2, 2, 3, 4, 4, 4, 5]

    def test_contains_01(self):
        assert frozenset({(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)}) in rank5_galois_cases()

    def test_excludes_mixed_cycle_groups(self):
        # (0 1 2)(3 4) and (0 1)(2 3 4) generate order-6 groups: not cases
        for gen in [(1, 2, 0, 4, 3), (1, 0, 3, 4, 2)]:
            group = {gen}
            cur = gen
            while cur != (0, 1, 2, 3, 4):
                cur = compose(cur, gen)
                group.add(cur)
            assert not in_rank5_cases(group)

    def test_all_abelian(self):
        for case in rank5_galois_cases():
            for a in case:
                for b in case:
                    assert compose(a, b) == compose(b, a)

    def test_catalog_profiles_in_cases(self, catalog_rank5):
        for _, datum in catalog_rank5:
            assert in_rank5_cases(compute_profile(datum).image())

    def test_conjugacy_detects_relabeling(self):
        case = frozenset({(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)})
        relabeled = frozenset({(0, 1, 2, 3, 4), (0, 1, 2, 4, 3)})  # (3 4)
        assert subgroups_conjugate(case, relabeled)
        z4 = rank5_galois_cases()[2]
        assert not subgroups_conjugate(case, z4)


class TestGrothendieckEquiv:
    def test_16_family_pairwise(self, su2_4_all):
        fusions = [verlinde_fusion(d) for d in su2_4_all]
        base = fusions[0]
        for other in fusions[1:]:
            assert grothendieck_equiv(base, other) is not None

    def test_distinct_classes_not_equivalent(self, su2_9, pointed_z5):
        f9 = verlinde_fusion(su2_9)
        f5 = verlinde_fusion(pointed_z5)
        assert grothendieck_equiv(f9, f5) is None

    def test_round_trip(self, su2_9):
        rng = random.Random(3)
        fusion = verlinde_fusion(su2_9)
        for _ in range(5):
            rest = list(range(1, 5))
            rng.shuffle(rest)
            perm = tuple([0] + rest)
            relabeled = relabel_fusion(fusion, perm)
            witness = grothendieck_equiv(fusion, relabeled)
            assert witness is not None
            for i in range(5):
                for j in range(5):
                    for k in range(5):
                        assert (
                            relabeled.tensor[witness[i]][witness[j]][witness[k]]
                            == fusion.tensor[i][j][k]
                        )

    def test_equivalence_relation_properties(self, su2_9, su2_4_all):
        f1 = verlinde_fusion(su2_9)
        f2 = verlinde_fusion(su2_4_all[0])
        assert grothendieck_equiv(f1, f1) is not None  # reflexive
        w12 = grothendieck_equiv(verlinde_fusion(su2_4_all[1]), f2)
        w21 = grothendieck_equiv(f2, verlinde_fusion(su2_4_all[1]))
        assert (w12 is None) == (w21 is None)  # symmetric

    def test_witnesses_compose_transitively(self, su2_9):
        rng = random.Random(5)
        f0 = verlinde_fusion(su2_9)
        perms = []
        for _ in range(2):
            rest = list(range(1, 5))
            rng.shuffle(rest)
            perms.append(tuple([0] + rest))
        f1 = relabel_fusion(f0, perms[0])
        f2 = relabel_fusion(f1, perms[1])
        w01 = grothendieck_equiv(f0, f1)
        w12 = grothendieck_equiv(f1, f2)
        composed = tuple(w12[w01[i]] for i in range(5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert (
                        f2.tensor[composed[i]][composed[j]][composed[k]]
                        == f0.tensor[i][j][k]
                    )

    def test_rank_budget(self):
        tensor = tuple(
            tuple(tuple(int((i + j) % 9 == k) for k in range(9)) for j in range(9))
            for i in range(9)
        )
        f = FusionRules(9, tensor, tuple((-i) % 9 for i in range(9)))
        with pytest.raises(TooLargeError):
            grothendieck_equiv(f, f)

    def test_classify_fusion(self, su2_9, pointed_z5, su2_4_all):
        assert classify_fusion(verlinde_fusion(su2_9)) == "SU(2)_9/Z_2"
        assert classify_fusion(verlinde_fusion(pointed_z5)) == "SU(5)_1"
        assert classify_fusion(verlinde_fusion(su2_4_all[7])) == "SU(2)_4"


class TestVanishingSum:
    def test_constructed_instance(self):
        report = vanishing_sum_check(2, 1, -2, -1, ONE, zeta(4))
        assert report.sum_is_zero and report.conclusions_hold

    def test_nonzero_sum(self):
        report = vanishing_sum_check(1, 1, 1, 1, ONE, zeta(4))
        assert not report.sum_is_zero

    def test_order_constraint(self):
        with pytest.raises(ValueError):
            vanishing_sum_check(1, 1, 1, 1, zeta(8), zeta(4))

    def test_no_zero_coefficients(self):
        with pytest.raises(ValueError):
            vanishing_sum_check(0, 1, 1, 1, ONE, zeta(4))

    def test_scan_m24_empty(self):
        assert vanishing_sum_scan(24) == []

    def test_scan_m60_empty(self):
        assert vanishing_sum_scan(60) == []

    def test_zeta3_has_no_relation_with_i(self):
        # a + bi + c*zeta3 + d*beta = 0 with all nonzero is impossible for
        # small beta: kernel analysis mirrors the a=1,b=1 spec example
        for beta in [zeta(3), zeta(3, 2), zeta(12), zeta(12, 7)]:
            assert not _all_nonzero_solution_exists([ONE, zeta(4), zeta(3), beta])

    def test_kernel_matches_dense_oracle_on_orbit_representatives(self):
        # one pair of roots per orbit key (m, n, eb * ea^-1 mod gcd(m, n)),
        # ord alpha <= ord beta <= 24, none of the scan's filters applied
        seen = set()
        for m in range(1, 25):
            for n in range(m, 25):
                g = gcd(m, n)
                for ea in (e for e in range(m) if gcd(e, m) == 1):
                    for eb in (e for e in range(n) if gcd(e, n) == 1):
                        key = (m, n, eb * pow(ea, -1, g) % g)
                        if key in seen:
                            continue
                        seen.add(key)
                        columns = [ONE, zeta(4), zeta(m, ea), zeta(n, eb)]
                        oracle = fraction_rational_kernel(columns)
                        assert oracle == dense_rational_kernel(columns), key
                        assert_primitive_multiples(_integer_kernel(columns), oracle)

    def test_kernel_matches_dense_oracle_on_random_columns(self):
        rng = random.Random(20240607)
        for _ in range(60):
            orders = [rng.choice([1, 3, 4, 5, 8, 12]) for _ in range(rng.randint(1, 6))]
            columns = [
                Cyclotomic(
                    n,
                    {
                        rng.randrange(n): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))
                    },
                )
                for n in orders
            ]
            oracle = fraction_rational_kernel(columns)
            assert oracle == dense_rational_kernel(columns)
            assert_primitive_multiples(_integer_kernel(columns), oracle)

    def test_detector_finds_planted_relation(self):
        assert _all_nonzero_solution_exists([ONE, zeta(4), ONE, zeta(4)])
        assert _all_nonzero_solution_exists([ONE, zeta(4), -ONE, zeta(4, 3)])


class TestIntegralDimensionSearch:
    def test_rank7_z5_empty(self):
        result = integral_dimension_search(7, (1, 5, 1), {2, 3, 11})
        assert result.survivors == ()
        assert result.excluded_by_modulus == 5

    def test_rank5_pointed_survives(self):
        result = integral_dimension_search(5, (1, 1, 1, 1, 1), {5}, bound=200)
        assert (1, 1, 1, 1, 1) in result.survivors

    def test_rank2_brute_force_oracle(self):
        result = integral_dimension_search(2, (1, 1), {5}, bound=600)
        # oracle: direct enumeration of 5-smooth d with 1 + d^2 also 5-smooth
        smooth = [5**k for k in range(4)]
        expected = []
        for d in smooth:
            total = 1 + d * d
            while total % 5 == 0:
                total //= 5
            if total == 1:
                expected.append((1, d))
        assert list(result.survivors) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_dimension_search(5, (1, 5, 1), {2})
        with pytest.raises(ValueError):
            integral_dimension_search(7, (5, 1, 1), {2})
        with pytest.raises(ValueError):
            integral_dimension_search(7, (1, 5, 1), {4})


class TestPerfectSquare:
    @pytest.mark.parametrize(
        "n, square",
        [
            (0, True),
            (1, True),
            (15, False),
            (16, True),
            (10**400, True),
            ((10**200 + 1) ** 2, True),
            ((10**200 + 1) ** 2 + 1, False),
        ],
        ids=["0", "1", "15", "16", "10**400", "(10**200+1)**2", "(10**200+1)**2+1"],
    )
    def test_exact_for_any_size(self, n, square):
        assert _is_perfect_square(n) is square


class TestRank5Suite:
    def test_default_run_passes(self, catalog_rank5):
        report = rank5_suite(catalog_rank5)
        assert report.passed, report.format_table()
        classes = {e.name: e.fusion_class for e in report.entries}
        assert classes["su2_9_mod2"] == "SU(2)_9/Z_2"
        assert classes["pointed_z5"] == "SU(5)_1"
        assert all(
            v == "SU(2)_4" for k, v in classes.items() if k.startswith("su2_4")
        )
        assert any("SU(3)_4/Z_3" in note for note in report.notes)

    def test_galois_profile_computed_once_per_datum(self, catalog_rank5, monkeypatch):
        # condition (vi) of check_admissible builds the profile; the suite reuses it
        from moddata import classifier, galois

        seen = []
        real = galois.compute_profile

        def counting(datum, rep=None):
            seen.append(datum)
            return real(datum, rep)

        monkeypatch.setattr(galois, "compute_profile", counting)
        monkeypatch.setattr(classifier, "compute_profile", counting)
        assert rank5_suite(catalog_rank5).passed
        assert seen == [datum for _, datum in catalog_rank5]

    def test_corrupted_datum_isolated(self, su2_9):
        from moddata.modular_data import ModularDatum

        rows = [list(r) for r in su2_9.S]
        rows[2][3] = rows[2][3] * 3
        rows[3][2] = rows[2][3]
        bad = ModularDatum(5, 11, su2_9.t_exponents, tuple(tuple(r) for r in rows))
        report = rank5_suite([("corrupted", bad)])
        assert not report.passed
        entry = report.entries[0]
        failing = [c.name for c in entry.checks if not c.ok]
        assert "admissible (7 conditions)" in failing

    def test_json_schema(self, catalog_rank5):
        data = rank5_suite(catalog_rank5[:1]).to_json()
        assert data["schema"] == 1
        assert data["entries"][0]["name"] == "su2_9_mod2"
