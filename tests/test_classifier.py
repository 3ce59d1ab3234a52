import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from moddata import classifier
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
    subgroups_conjugate,
    vanishing_sum_check,
    vanishing_sum_scan,
)
from moddata.cyclotomic import Cyclotomic, ONE, _numerators_at, _reduce_exponents, euler_phi, zeta
from moddata.galois import compute_profile
from moddata.modular_data import FusionRules, Verdict, compose, verlinde_fusion

from _oracles import (
    dense_rational_kernel,
    fraction_rational_kernel,
    kernel_all_nonzero_solution_exists,
    lift,
    relabel_fusion,
    root_pair_class,
)

GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports"


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


def spy_on_kernel(monkeypatch):
    """The list of column sets that classifier._integer_kernel is called on
    from here on."""
    calls = []
    kernel = classifier._integer_kernel
    monkeypatch.setattr(
        classifier, "_integer_kernel", lambda columns: calls.append(columns) or kernel(columns)
    )
    return calls


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
        # (0 1)(2 3) has the order of (0 1), so only the scan over all
        # relabelings tells them apart, and it finds none
        double = frozenset({(0, 1, 2, 3, 4), (1, 0, 3, 2, 4)})
        assert not subgroups_conjugate(case, double)


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
        f = FusionRules(tensor)
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
            assert not _all_nonzero_solution_exists(lift([ONE, zeta(4), zeta(3), beta]))

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
                        assert_primitive_multiples(_integer_kernel(lift(columns)), oracle)

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
            assert_primitive_multiples(_integer_kernel(lift(columns)), oracle)

    def test_detector_finds_planted_relation(self, monkeypatch):
        # 1, i, 1, i and 1, i, -1, zeta_4^3 share every row, so no row decides
        # them and the kernel runs once each
        calls = spy_on_kernel(monkeypatch)
        assert _all_nonzero_solution_exists(lift([ONE, zeta(4), ONE, zeta(4)]))
        assert _all_nonzero_solution_exists(lift([ONE, zeta(4), -ONE, zeta(4, 3)]))
        assert len(calls) == 2

    @pytest.mark.parametrize("max_order", [24, 48, 96])
    def test_scan_never_reaches_the_integer_kernel(self, monkeypatch, max_order):
        # every class has a row that one column owns, so the support test
        # decides it before any elimination
        calls = spy_on_kernel(monkeypatch)
        assert vanishing_sum_scan(max_order) == []
        assert calls == []

    def test_zero_coefficient_counts_as_absent(self):
        assert _integer_kernel([{0: 0}]) == _integer_kernel([{}]) == [(1,)]
        assert _integer_kernel([{0: 2, 1: 0}, {0: -1}, {2: 0}]) == _integer_kernel(
            [{0: 2}, {0: -1}, {}]
        ) == [(1, 2, 0), (0, 0, 1)]
        # a stray zero owns no row: x_0 = x_1 is a relation with both nonzero
        assert _all_nonzero_solution_exists([{0: 1, 1: 0}, {0: -1}])
        assert not _all_nonzero_solution_exists([{0: 1, 1: 2}, {0: -1}])

    def test_support_test_matches_kernel_only_oracle_on_random_columns(self, monkeypatch):
        # zero columns, zero coefficients, repeated and rescaled columns, and
        # cases whose every row is shared, which only the kernel decides
        rng = random.Random(20261020)
        calls = spy_on_kernel(monkeypatch)
        verdicts, decided_by_kernel = [], 0
        for _ in range(400):
            columns = []
            for _ in range(rng.randint(1, 5)):
                kind = rng.randrange(4)
                if kind == 0:
                    columns.append({})
                elif kind == 1 and columns:
                    scale = rng.choice([-2, -1, 1, 3])
                    columns.append({e: scale * q for e, q in rng.choice(columns).items()})
                else:
                    columns.append(
                        {rng.randrange(5): rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
                    )
            if rng.randrange(2) and len(columns) > 1:
                # give each row that one column owns a second owner
                for e in range(5):
                    owners = [c for c, col in enumerate(columns) if col.get(e)]
                    if len(owners) == 1:
                        other = rng.choice([c for c in range(len(columns)) if c != owners[0]])
                        columns[other][e] = rng.choice([-1, 1, 2])
            calls.clear()
            verdict = _all_nonzero_solution_exists(columns)
            assert verdict == kernel_all_nonzero_solution_exists(columns), columns
            verdicts.append(verdict)
            decided_by_kernel += len(calls)
        assert 50 < verdicts.count(True) < 350
        assert 50 < decided_by_kernel < 350

    def test_scan_reads_every_row_from_its_table(self, monkeypatch):
        # every column the scan reads is zeta_L^j on the power basis of Q_L,
        # one row of the reduction table.  The verdict is read once per class
        # of root pairs under Galois, signs and swap, on the first pair
        # (zeta_m, zeta_n^eb) of the class in the order of (m, n, eb),
        # reading the rows of 1, i, alpha, beta at L = lcm(4, m, n)
        read, calls = [], []
        monomial = classifier._monomial

        def row(order, j):
            read.append((order, j))
            return monomial(order, j)

        def exists(columns):
            calls.append(columns)
            return False

        monkeypatch.setattr(classifier, "_monomial", row)
        monkeypatch.setattr(classifier, "_all_nonzero_solution_exists", exists)
        assert vanishing_sum_scan(48) == []
        monkeypatch.undo()
        conductor = lambda m: m // 2 if m % 4 == 2 else m
        representatives = {}
        for m in range(1, 49):
            for n in range(m, 49):
                if (
                    not (m <= 2 and n == 4)
                    and lcm(4, conductor(m)) % conductor(n) == 0
                    and lcm(4, conductor(n)) % conductor(m) == 0
                ):
                    for eb in (e for e in range(n) if gcd(e, n) == 1):
                        representatives.setdefault(root_pair_class(m, 1 % m, n, eb), (m, n, eb))
        reads = [
            [(order, 0), (order, order // 4), (order, order // m % order), (order, eb * order // n)]
            for m, n, eb in representatives.values()
            for order in [lcm(4, m, n)]
        ]
        assert len(calls) == 342
        assert read == [key for keys in reads for key in keys]
        for keys, columns in zip(reads, calls):
            for (order, j), column in zip(keys, columns):
                assert column == _reduce_exponents(order, {j: 1}), (order, j)
                assert column == _numerators_at(zeta(order, j), order)[0], (order, j)

    @pytest.mark.parametrize(
        "max_order, classes", [(24, 94), (36, 198), (48, 342), (60, 522), (96, 1272)]
    )
    def test_scan_runs_the_kernel_once_per_class(self, monkeypatch, max_order, classes):
        calls = []
        exists = classifier._all_nonzero_solution_exists
        monkeypatch.setattr(
            classifier, "_all_nonzero_solution_exists", lambda cols: calls.append(cols) or exists(cols)
        )
        assert vanishing_sum_scan(max_order) == []
        assert len(calls) == classes

    def test_integer_kernel_matches_fraction_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def integer_columns(draw):
            # integer columns on the power basis of Q_order: exponents below
            # phi(order), nonzero coefficients
            order = draw(st.sampled_from([1, 3, 4, 5, 8, 12, 15, 24]))
            coeff = st.integers(-4, 4).filter(bool)
            column = st.dictionaries(st.integers(0, euler_phi(order) - 1), coeff, max_size=4)
            return order, draw(st.lists(column, min_size=1, max_size=6))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(integer_columns())
        def check(case):
            order, columns = case
            oracle = fraction_rational_kernel([Cyclotomic(order, col) for col in columns])
            assert_primitive_multiples(_integer_kernel(columns), oracle)

        check()

    def test_support_test_matches_kernel_only_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def integer_columns(draw):
            # few exponents, so rows are often shared; zero coefficients and
            # empty columns allowed, and some columns repeated
            column = st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=4)
            columns = draw(st.lists(column, min_size=1, max_size=5))
            repeats = draw(st.lists(st.integers(0, len(columns) - 1), max_size=2))
            return columns + [dict(columns[c]) for c in repeats]

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(integer_columns())
        def check(columns):
            assert _all_nonzero_solution_exists(columns) == kernel_all_nonzero_solution_exists(
                columns
            )

        check()


class TestIntegralDimensionSearch:
    def test_rank7_z5_empty(self):
        result = integral_dimension_search(7, (1, 5, 1), {2, 3, 11})
        assert result.survivors == ()
        assert result.excluded_by_modulus == 5

    def test_feasible_modulus_gives_the_toric_code(self):
        # orbit sizes (1, 3): mod 3, 1 + 3 d^2 = 1 is a square, so no
        # modulus excludes, and 1 + 3 d^2 is a square power of 2 only at d = 1
        result = integral_dimension_search(4, (1, 3), {2})
        assert result.survivors == ((1, 1, 1, 1),)
        assert result.excluded_by_modulus is None

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
        with pytest.raises(ValueError, match="must be a singleton"):
            integral_dimension_search(0, [], [2])  # no unit's orbit at all
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

    def test_only_package_errors_become_fail_rows(self, catalog_rank5, monkeypatch):
        from moddata import classifier

        recorded = (GOLDEN_REPORTS / "classify_rank5.out").read_text()

        def raising(exc):
            def normalize(datum):
                raise exc
            return normalize

        # a ValueError on bad data is a FAIL row
        monkeypatch.setattr(classifier, "normalize", raising(ValueError("bad lift")))
        entry = rank5_suite(catalog_rank5[:1]).entries[0]
        assert Verdict(False, "bad lift", "canonical lift relations") in entry.checks
        # a TypeError is a bug, not a verdict
        monkeypatch.setattr(classifier, "normalize", raising(TypeError("bug")))
        with pytest.raises(TypeError, match="^bug$"):
            rank5_suite(catalog_rank5)
        monkeypatch.undo()
        assert rank5_suite(catalog_rank5).format_table() + "\n" == recorded

    def test_json_schema(self, catalog_rank5):
        data = rank5_suite(catalog_rank5[:1]).to_json()
        assert data["schema"] == 1
        assert data["entries"][0]["name"] == "su2_9_mod2"
