import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from moddata.cyclotomic import (
    Cyclotomic,
    InvalidOrderError,
    NotAUnitError,
    ONE,
    ZERO,
    divisors,
    dot,
    euler_phi,
    factorize,
    get_order_cap,
    is_prime,
    set_order_cap,
    sqrt_int,
    sum_cyclotomics,
    units_mod,
    zeta,
)
from moddata import cyclotomic as cy
from moddata.cyclotomic import _descend, _order_info, _reduce_exponents
from moddata.modular_data import (
    FusionComputationError,
    check_admissible,
    derived_scalars,
    load,
    verlinde_fusion,
)
from moddata.sl2z_reps import NotModularRepresentation, all_lifts
from _oracles import (
    cyclotomic_poly_squarefree,
    cyclotomic_polynomial,
    dot_check_balancing,
    dot_check_twist_equation,
    dot_projectively_unitary,
    dot_verlinde_fusion,
    embedding_canonical,
    fraction_dot,
    fraction_galois,
    fraction_inverse,
    fraction_json,
    fraction_str,
    fraction_twisted_sum,
    fraction_value,
)

SEED = 20240601


def random_element(rng, n, terms=4, coeff=9):
    return Cyclotomic(
        n,
        {
            rng.randrange(n): Fraction(rng.randint(-coeff, coeff), rng.randint(1, 5))
            for _ in range(terms)
        },
    )


class TestConstruction:
    def test_i_squared(self):
        assert Cyclotomic(4, {1: 1}) * Cyclotomic(4, {1: 1}) == Cyclotomic(4, {0: -1})

    def test_rational_constant(self):
        x = Cyclotomic(1, {0: Fraction(3, 2)})
        assert x.is_rational and x.as_rational() == Fraction(3, 2)

    def test_vanishing_sum_of_fifth_roots(self):
        assert Cyclotomic(5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}).is_zero

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            Cyclotomic(0, {0: 1})

    def test_order_cap(self):
        cap = get_order_cap()
        try:
            set_order_cap(10)
            with pytest.raises(InvalidOrderError):
                zeta(101)
        finally:
            set_order_cap(cap)

    def test_exponents_reduced_mod_order(self):
        assert Cyclotomic(5, {7: 1}) == zeta(5, 2)

    def test_immutability(self):
        x = zeta(5)
        with pytest.raises(AttributeError):
            x.order = 3


class TestArithmetic:
    def test_zeta8_times_inverse_power(self):
        assert zeta(8) * zeta(8, 7) == ONE

    def test_thirds_sum(self):
        assert zeta(3) + zeta(3, 2) == -ONE

    def test_inverse_multiplies_back(self):
        x = zeta(5) + zeta(5, 4)
        assert x * x.inverse() == ONE

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_field_axioms_random(self):
        rng = random.Random(SEED)
        for n in (8, 12, 15):
            for _ in range(10):
                a, b, c = (random_element(rng, n) for _ in range(3))
                assert a + b == b + a
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)
                if a:
                    assert a * a.inverse() == ONE

    def test_division(self):
        assert (zeta(7) + 1) / (zeta(7) + 1) == ONE

    def test_pow(self):
        assert zeta(7) ** 7 == ONE
        assert zeta(7) ** -2 == zeta(7, 5)
        assert (zeta(12) + 1) ** 0 == ONE


class TestRandomProperties:
    """Hypothesis versions of the fixed and seeded cases above, on values
    drawn at orders dividing 120, so that every unit mod 120 acts on them."""

    ORDERS = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]

    @staticmethod
    def strategies():
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)

        @st.composite
        def element(draw):
            n = draw(st.sampled_from(TestRandomProperties.ORDERS))
            terms = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=4))
            return Cyclotomic(n, terms)

        return hypothesis, st, coeff, element()

    def test_field_axioms(self):
        hypothesis, st, _, element = self.strategies()

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(element, element, element)
        def check(a, b, c):
            assert a + b == b + a and a * b == b * a
            assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a and a * ONE == a and a - a == ZERO
            if a:
                assert a * a.inverse() == ONE

        check()

    def test_galois_is_a_ring_homomorphism(self):
        hypothesis, st, _, element = self.strategies()

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(element, element, st.sampled_from(units_mod(120)))
        def check(a, b, k):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert (-a).galois(k) == -a.galois(k) and ONE.galois(k) == ONE
            if a:
                assert a.inverse().galois(k) == a.galois(k).inverse()

        check()

    def test_equal_values_have_equal_json_and_hash(self):
        hypothesis, st, coeff, element = self.strategies()

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(element, st.sampled_from([1, 2, 3, 5]), st.data())
        def check(x, m, data):
            # x written at order n = m ord(x), plus c zeta_n^e times a
            # vanishing sum 1 + zeta_p + ... + zeta_p^(p-1) for a prime p | n
            n = x.order * m
            terms = {e * m: c for e, c in x.items()}
            primes = sorted(factorize(n))
            if primes:
                p, e, c = data.draw(st.sampled_from(primes)), data.draw(st.integers(0, n - 1)), data.draw(coeff)
                for j in range(p):
                    k = (e + j * n // p) % n
                    terms[k] = terms.get(k, 0) + c
            for y in (Cyclotomic(n, terms), (x + x * zeta(n)) - x * zeta(n)):
                assert y == x and y.to_json() == x.to_json() and hash(y) == hash(x)
                if x.order == 1:  # a rational hashes like its Fraction
                    assert hash(y) == hash(Fraction(x._nums.get(0, 0), x._den))

        check()


class TestGalois:
    def test_monomial_action(self):
        assert zeta(5).galois(2) == zeta(5, 2)

    def test_real_fixed_by_conjugation(self):
        r2 = zeta(8) + zeta(8, -1)
        assert r2.galois(-1) == r2

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnitError):
            zeta(6).galois(3)

    def test_composition_property(self):
        rng = random.Random(SEED)
        for _ in range(50):
            n = rng.choice([5, 8, 9, 12, 15, 16, 21])
            x = random_element(rng, n)
            units = units_mod(x.order)
            k1, k2 = rng.choice(units), rng.choice(units)
            assert x.galois(k1).galois(k2) == x.galois(
                k1 * k2 % x.order if x.order > 1 else 1
            )

    def test_group_action_isomorphic_to_units(self):
        # the maps sigma_k are pairwise distinct on Q(zeta_n) and compose as units
        rng = random.Random(SEED + 1)
        for n in (7, 9, 20, 36, 60):
            x = zeta(n)
            images = {k: x.galois(k) for k in units_mod(n)}
            assert len(set(images.values())) == len(images)
            samples = [random_element(rng, n) for _ in range(20)]
            for k1 in units_mod(n)[:4]:
                for k2 in units_mod(n)[:4]:
                    for s in samples:
                        if s.order > 1 and gcd(k1, s.order) == 1 and gcd(k2, s.order) == 1:
                            lhs = s.galois(k1).galois(k2)
                            assert lhs == s.galois((k1 * k2) % s.order)


class TestConductor:
    def test_zeta6_squared_lands_at_order_3(self):
        x = Cyclotomic(6, {2: 1})
        assert x.order == 3 and x == zeta(3)

    def test_sqrt2_stays_at_8(self):
        r2 = zeta(8) + zeta(8, -1)
        assert r2.order == 8
        # oracle: not fixed by the subgroup over any proper divisor of 8
        for m in (1, 2, 4):
            fixed = all(
                r2.galois(k) == r2
                for k in range(1, 8)
                if gcd(k, 8) == 1 and k % m == 1 % m
            )
            assert not fixed

    def test_rational_at_order_12(self):
        assert Cyclotomic(12, {0: 7}).order == 1

    def test_embed_round_trip(self):
        rng = random.Random(SEED + 2)
        for _ in range(20):
            n = rng.choice([3, 5, 8, 12])
            x = random_element(rng, n)
            big = n * rng.choice([2, 3, 4])
            lifted = Cyclotomic(big, {e * (big // x.order): c for e, c in x.items()})
            assert lifted == x

    def test_canonical_equality_across_orders(self):
        rng = random.Random(SEED + 3)
        for _ in range(30):
            n = rng.choice([6, 10, 12, 18])
            x = random_element(rng, n)
            y = Cyclotomic(2 * x.order, {2 * e: c for e, c in x.items()})
            assert x == y and hash(x) == hash(y)


class TestPredicates:
    def test_minus_zeta3_is_root_of_unity_order_6(self):
        assert (-zeta(3)).root_of_unity_order() == 6

    def test_half_not_algebraic_integer(self):
        assert not Cyclotomic(1, {0: Fraction(1, 2)}).is_algebraic_integer

    def test_golden_real(self):
        assert (zeta(5) + zeta(5, 4)).is_real

    def test_algebraic_integers_closed_under_ops(self):
        rng = random.Random(SEED + 4)
        for _ in range(20):
            n = rng.choice([5, 8, 12])
            a = Cyclotomic(n, {rng.randrange(n): rng.randint(-3, 3) for _ in range(3)})
            b = Cyclotomic(n, {rng.randrange(n): rng.randint(-3, 3) for _ in range(3)})
            assert (a + b).is_algebraic_integer
            assert (a * b).is_algebraic_integer

    def test_root_of_unity_log(self):
        assert zeta(12, 5).root_of_unity_log() == (12, 5)
        assert (-ONE).root_of_unity_log() == (2, 1)
        assert ONE.root_of_unity_log() == (1, 0)
        assert (zeta(5) + 1).root_of_unity_log() is None

    def test_rationals(self):
        assert Cyclotomic(1, {0: 2}).is_integer
        assert not zeta(3).is_rational
        assert Cyclotomic(1, {0: -7}).as_integer() == -7 and ZERO.as_integer() == 0
        with pytest.raises(ValueError, match="is not a rational integer"):
            Cyclotomic.from_rational(Fraction(1, 2)).as_integer()
        with pytest.raises(ValueError, match="is not rational"):
            zeta(3).as_integer()


class TestComplexEval:
    def test_i(self):
        assert abs(zeta(4).complex_eval() - 1j) < 1e-10

    def test_sqrt2(self):
        v = (zeta(8) + zeta(8, -1)).complex_eval()
        assert abs(v - 2**0.5) < 1e-10

    def test_sine_ratio(self):
        import math

        # sin(3 pi/11)/sin(pi/11) as a cyclotomic: ratio of zeta_22 differences
        h = 6  # (11+1)/2, zeta_22 = -zeta_11^6
        num = Cyclotomic(11, {(h * 3) % 11: -1, (-h * 3) % 11: 1})
        den = Cyclotomic(11, {h % 11: -1, (-h) % 11: 1})
        value = (num / den).complex_eval()
        expected = math.sin(3 * math.pi / 11) / math.sin(math.pi / 11)
        assert abs(value - expected) < 1e-11


class TestCanonicalUniqueness:
    def test_equality_iff_same_canonical_coeffs(self):
        rng = random.Random(SEED + 5)
        for _ in range(40):
            n = rng.choice([5, 8, 12, 15])
            x = random_element(rng, n)
            y = random_element(rng, n)
            same = (x.order == y.order) and dict(x.items()) == dict(y.items())
            assert (x == y) == same


class TestSqrtInt:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 8, 11, 12, 24, 33])
    def test_square_and_positivity(self, n):
        root = sqrt_int(n)
        assert root * root == Cyclotomic.from_rational(n)
        assert root.complex_eval().real == pytest.approx(n**0.5, abs=1e-9)


class TestPolynomials:
    def test_small_cyclotomics(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_phi(self):
        for n in range(1, 40):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)

    def test_number_theory_helpers(self):
        assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert units_mod(12) == [1, 5, 7, 11]

    def test_squarefree_part_matches_the_divisor_recursion(self, monkeypatch):
        # Phi_n(x) = Phi_r(x^(n/r)) for r = rad(n): every r of an n <= 500
        divide = cy._poly_div_exact
        calls = []
        monkeypatch.setattr(cy, "_poly_div_exact", lambda num, den: calls.append(1) or divide(num, den))
        for r in sorted({prod(factorize(n)) for n in range(1, 501)}):
            calls.clear()
            assert cy._cyclotomic_poly_squarefree(r) == cyclotomic_poly_squarefree(r), r
            assert len(calls) == len(factorize(r))  # one exact division per prime


class TestJson:
    def test_round_trip(self):
        x = Cyclotomic(12, {0: Fraction(1, 2), 1: -2, 3: Fraction(7, 3)})
        data = x.to_json()
        assert data["order"] == x.order
        assert Cyclotomic.from_json(data) == x

    def test_schema_shape(self):
        data = zeta(5, 2).to_json()
        assert set(data) == {"order", "coeffs"}
        assert all(isinstance(k, str) for k in data["coeffs"])

    @pytest.mark.parametrize("coeff", [0.1, 1, True, None, ["1"]])
    def test_coefficient_must_be_a_string(self, coeff):
        with pytest.raises(TypeError, match="^coefficient must be a string, not "):
            Cyclotomic.from_json({"order": 5, "coeffs": {"1": coeff}})

    # int() reads each of these as an exponent ("1_0" as 10); the last is
    # an Arabic-Indic digit one, which str.isdecimal accepts
    @pytest.mark.parametrize("key", ["1_0", " 1", "+1", "1 ", "1\n", "", "-", "\u0661"])
    def test_exponent_key_must_be_plain_digits(self, key):
        with pytest.raises(ValueError, match="^exponent must be a decimal integer, not "):
            Cyclotomic.from_json({"order": 5, "coeffs": {key: "1"}})

    def test_exponent_keys_with_sign_and_leading_zeros(self):
        data = {"order": 5, "coeffs": {"-1": "1/2", "007": "-3"}}
        assert Cyclotomic.from_json(data) == Fraction(1, 2) * zeta(5, 4) - 3 * zeta(5, 2)


# orders covering p^2 | n, p || n and n = 2 (mod 4) descents
DESCENT_ORDERS = (8, 12, 20, 24, 36, 40, 60, 72, 120, 156)
# 2 * odd, p^2 | n, p || n, and n = p once a descent reaches a prime order
ORACLE_DESCENT_ORDERS = (6, 9, 12, 15, 20, 21, 24, 33, 44, 60, 105)
GOLDEN_REPORT_DATA = Path(__file__).resolve().parent / "golden_reports" / "data"


class TestDescent:
    @pytest.mark.parametrize("n", DESCENT_ORDERS)
    def test_same_value_built_at_every_multiple(self, n):
        rng = random.Random(SEED + n)
        for m in divisors(n):
            for _ in range(3):
                x = random_element(rng, m)
                up = Cyclotomic(n, {e * (n // x.order): c for e, c in x.items()})
                assert up.order == x.order
                assert list(up.items()) == list(x.items())
                assert hash(up) == hash(x)
                assert up.to_json() == x.to_json()

    @pytest.mark.parametrize("n", DESCENT_ORDERS)
    def test_element_outside_subfield_does_not_descend(self, n):
        rng = random.Random(SEED + 2 * n)
        for p in factorize(n):
            m = n // p
            inside = random_element(rng, m) + zeta(m)
            outside = zeta(n) + inside
            assert outside.order == n
            assert _descend(n, p, outside._nums) is None
            # the same element of Q_m, written at order n, descends to it
            step = n // inside.order
            nums = {e * step: c for e, c in inside._nums.items()}
            sub, k = _descend(n, p, _reduce_exponents(n, nums))
            assert Cyclotomic(m, {j: Fraction(c, inside._den * k) for j, c in sub.items()}) == inside

    @pytest.mark.parametrize("n", ORACLE_DESCENT_ORDERS)
    def test_canonical_matches_embedding_descent(self, n):
        """Sums of elements of subfields Q_d, written at order n."""
        rng = random.Random(SEED + 3 * n)
        for _ in range(60):
            nums = {}
            for d in rng.sample(divisors(n), rng.randint(1, 3)):
                for _ in range(rng.randint(1, 4)):
                    e = rng.randrange(d) * (n // d)
                    nums[e] = nums.get(e, 0) + rng.randint(-9, 9)
            den = rng.randint(1, 12)
            assert cy._canonical(n, dict(nums), den) == embedding_canonical(n, nums, den)

    def test_canonical_matches_embedding_descent_while_checking(self, monkeypatch, data_dir):
        """Every value canonicalised by check, by the exact forms of the
        identities it decides from residues, by the anomaly p+ p-^-1 as its
        definition reads, and by every lift where the datum has one."""
        calls = []
        real = cy._canonical

        def recording(n, nums, den):
            calls.append((n, dict(nums), den))
            return real(n, nums, den)

        monkeypatch.setattr(cy, "_canonical", recording)
        derived_scalars.cache_clear()
        verlinde_fusion.cache_clear()
        for path in [*sorted(data_dir.glob("*.json")), *sorted(GOLDEN_REPORT_DATA.glob("*.json"))]:
            datum = load(path)
            check_admissible(datum)
            ds = derived_scalars(datum)
            dot_projectively_unitary(datum, ds.global_dim_sq)
            dot_check_twist_equation(datum)
            try:
                dot_check_balancing(datum, dot_verlinde_fusion(datum))
            except FusionComputationError:
                pass
            if ds.gauss_minus:
                assert ds.gauss_plus * ds.gauss_minus.inverse() == ds.anomaly
            try:
                reps = all_lifts(datum)
            except NotModularRepresentation:
                continue
            assert all(len(rep.s) == datum.rank for rep in reps)
        monkeypatch.undo()
        assert len(calls) > 10_000
        for n, nums, den in calls:
            assert cy._canonical(n, nums, den) == embedding_canonical(n, nums, den)

    def test_large_order_2_mod_4(self):
        # zeta_2310^e = (-1)^e zeta_1155^(578e); phi(2310) = 480
        start = time.perf_counter()
        x = Cyclotomic(2310, {1: 1, 7: 3})
        assert time.perf_counter() - start < 20.0
        assert x == Cyclotomic(1155, {578: -1, 578 * 7: -3})
        assert x.order == 1155

    def test_threads_share_the_reduction_caches(self):
        rng = random.Random(SEED + 11)
        jobs = [
            (n, {rng.randrange(n): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)})
            for n in (24, 60, 72, 120, 156)
            for _ in range(4)
        ]
        orders = sorted({n for n, _ in jobs})
        tables = (cy._order_info, cy._reduction_rows, cy._embedding)
        for table in tables:
            table.cache_clear()
        barrier = threading.Barrier(4)

        def work():
            barrier.wait(timeout=60)
            values = [Cyclotomic(n, c).to_json() for n, c in jobs]
            return values, [cy._embedding(n, i) for n in orders for i in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work) for _ in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == results[0] for r in results)
        values, embeddings = results[0]
        assert values == [Cyclotomic(n, c).to_json() for n, c in jobs]
        # the threads wrote the entries of every job order: reading them misses nothing
        misses = [table.cache_info().misses for table in tables]
        for n in orders:
            cy._order_info(n)
            cy._reduction_rows(n)
            for i in range(4):
                cy._embedding(n, i)
        assert [table.cache_info().misses for table in tables] == misses
        # and those entries, and the divisors', agree with a fresh computation
        for n in orders:
            for d in divisors(n):
                info, rows = cy._order_info(d), cy._reduction_rows(d)
                assert info == cy._order_info.__wrapped__(d) == (euler_phi(d), tuple(factorize(d)))
                assert rows == cy._reduction_rows.__wrapped__(d) and len(rows[0]) == euler_phi(d)
        cy._embedding.cache_clear()
        assert embeddings == [cy._embedding(n, i) for n in orders for i in range(4)]  # a sequential walk


def _schoolbook_product(a, b):
    # the product at the lcm order, built term by term through the constructor
    n = a.order * b.order // gcd(a.order, b.order)
    raw = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 * (n // a.order) + e2 * (n // b.order)
            raw[e] = raw.get(e, 0) + c1 * c2
    return Cyclotomic(n, raw)


class TestDot:
    def test_fixed_cases(self):
        r2 = zeta(8) + zeta(8, -1)
        cases = [
            [],
            [(ZERO, zeta(5))],
            [(zeta(3), zeta(3, 2))],
            [(r2, r2), (zeta(4), zeta(4))],
            [(zeta(5), zeta(7)), (Fraction(1, 2), zeta(12)), (3, ONE)],
            [(zeta(12), zeta(12, 11)), (zeta(20), -zeta(20, 19))],
        ]
        for pairs in cases:
            assert dot(pairs) == sum_cyclotomics(a * b for a, b in pairs)
        assert dot([(zeta(12), zeta(12, 11)), (zeta(20), -zeta(20, 19))]) == ZERO

    def test_products_in_small_fields_past_the_order_cap(self):
        # the lcm order 35 is over the cap, but each product is rational
        pairs = [(zeta(5), zeta(5, 4)), (zeta(7), zeta(7, 6))]
        cap = get_order_cap()
        try:
            set_order_cap(10)
            assert dot(pairs) == Cyclotomic.from_rational(2)
            with pytest.raises(InvalidOrderError):
                dot([(zeta(5), zeta(7))])
        finally:
            set_order_cap(cap)

    def test_random_pairs(self):
        rng = random.Random(SEED + 13)
        for _ in range(30):
            pairs = [
                (random_element(rng, rng.choice([1, 3, 4, 5, 8, 12])),
                 random_element(rng, rng.choice([1, 3, 4, 5, 8, 12])))
                for _ in range(rng.randint(1, 4))
            ]
            expected = sum_cyclotomics(_schoolbook_product(a, b) for a, b in pairs)
            got = dot(pairs)
            assert got == expected and got.to_json() == expected.to_json()
            assert got == sum_cyclotomics(a * b for a, b in pairs)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)

        @st.composite
        def element(draw):
            n = draw(st.sampled_from([1, 3, 4, 5, 8, 9, 12, 15]))
            terms = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=4))
            return Cyclotomic(n, terms)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.lists(st.tuples(element(), element()), max_size=4))
        def check(pairs):
            got = dot(pairs)
            assert got == sum_cyclotomics(a * b for a, b in pairs)
            assert got == sum_cyclotomics(_schoolbook_product(a, b) for a, b in pairs)

        check()


class TestHugeOrder:
    def test_rejected_without_factoring(self):
        start = time.perf_counter()
        with pytest.raises(InvalidOrderError):
            Cyclotomic(10**18 + 3, {1: 1})
        assert time.perf_counter() - start < 1.0


def _merge_add(a, b):
    # the former __add__: Fraction dicts merged at the lcm order, then rebuilt
    # through the constructor
    n = lcm(a.order, b.order)
    merged = {e * (n // a.order): c for e, c in a.items()}
    for e, c in b.items():
        key = e * (n // b.order)
        merged[key] = merged.get(key, Fraction(0)) + c
    return Cyclotomic(n, merged)


def _merge_sum(values):
    # the former sum_cyclotomics, the same merge over many terms
    terms = [v for v in values if v]
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    n = lcm(*(v.order for v in terms))
    merged = {}
    for v in terms:
        step = n // v.order
        for e, c in v.items():
            merged[e * step] = merged.get(e * step, Fraction(0)) + c
    return Cyclotomic(n, merged)


def _outcome(f, *args):
    """The value, or the type of the exception raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def _assert_same(got, expected):
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got == expected and got.order == expected.order
        assert got.to_json() == expected.to_json()


SUM_ORDERS = [1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24]


class TestSumAgainstMergeOracle:
    def test_fixed_cases(self):
        r2 = zeta(8) + zeta(8, -1)
        cases = [
            [],
            [ZERO],
            [ZERO, zeta(5), ZERO],
            [zeta(3), zeta(3, 2)],
            [zeta(3), zeta(3, 2), ONE],
            [r2, -r2],
            [zeta(12), zeta(12, 5), zeta(4)],
            [zeta(5), zeta(7), Cyclotomic.from_rational(Fraction(-1, 3))],
            [zeta(5, e) for e in range(5)],
        ]
        for values in cases:
            _assert_same(sum_cyclotomics(values), _merge_sum(values))
            if len(values) == 2:
                _assert_same(values[0] + values[1], _merge_add(*values))
        half = Cyclotomic.from_rational(Fraction(1, 2))
        _assert_same(zeta(5) + 3, _merge_add(zeta(5), Cyclotomic.from_rational(3)))
        _assert_same(Fraction(1, 2) + zeta(8), _merge_add(zeta(8), half))
        _assert_same(zeta(9) - zeta(9, 2), _merge_add(zeta(9), -zeta(9, 2)))
        _assert_same(1 - zeta(4), _merge_add(ONE, -zeta(4)))

    def test_random_cases(self):
        rng = random.Random(SEED + 17)
        for _ in range(150):
            values = [
                random_element(rng, rng.choice(SUM_ORDERS), terms=rng.randint(0, 4))
                for _ in range(rng.randint(0, 5))
            ]
            _assert_same(sum_cyclotomics(values), _merge_sum(values))
            a, b = (random_element(rng, rng.choice(SUM_ORDERS)) for _ in range(2))
            _assert_same(a + b, _merge_add(a, b))
            _assert_same(a - b, _merge_add(a, -b))

    def test_past_the_order_cap(self):
        rng = random.Random(SEED + 19)
        cap = get_order_cap()
        try:
            set_order_cap(8)
            with pytest.raises(InvalidOrderError):
                zeta(5) + zeta(7)
            # the sum is rational, but its terms meet only at order 35
            with pytest.raises(InvalidOrderError):
                sum_cyclotomics([zeta(5), zeta(7), -zeta(5), -zeta(7)])
            for _ in range(80):
                values = [
                    random_element(rng, rng.choice([1, 3, 4, 5, 7, 8, 9, 12]), terms=2)
                    for _ in range(rng.randint(1, 3))
                ]
                expected = _outcome(_merge_sum, values)
                _assert_same(_outcome(sum_cyclotomics, values), expected)
                a, b = values[0], values[-1]
                _assert_same(_outcome(lambda: a + b), _outcome(_merge_add, a, b))
        finally:
            set_order_cap(cap)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)

        @st.composite
        def element(draw):
            n = draw(st.sampled_from(SUM_ORDERS))
            terms = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=4))
            return Cyclotomic(n, terms)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.lists(element(), max_size=5))
        def check(values):
            _assert_same(sum_cyclotomics(values), _merge_sum(values))
            if len(values) >= 2:
                _assert_same(values[0] + values[1], _merge_add(values[0], values[1]))

        check()


@cache
def _monomials(f):
    return [Cyclotomic(f, {e: 1}) for e in range(f)]


def _scan_root_of_unity_parts(x):
    """The former search: every exponent e < f tried against +-zeta_f^e."""
    f = x.order
    if f == 1:
        q = x.as_rational()
        return (1, 0) if q == 1 else (-1, 0) if q == -1 else None
    if any(c.denominator != 1 for _, c in x.items()):
        return None
    if x * x.conjugate() != ONE:
        return None
    for e, mono in enumerate(_monomials(f)):
        if x == mono:
            return (1, e)
        if x == -mono:
            return (-1, e)
    return None


class TestRootOfUnityAgainstScanOracle:
    def test_every_signed_root_up_to_order_120(self):
        values = {
            sign * zeta(f, e)
            for f in range(1, 121)
            if f % 4 != 2
            for e in range(f)
            for sign in (1, -1)
        }
        for x in values:
            parts = x._root_of_unity_parts()
            assert parts is not None and parts == _scan_root_of_unity_parts(x), x

    def test_values_that_are_not_roots_of_unity(self):
        rng = random.Random(SEED + 23)
        values = [
            ZERO,
            Cyclotomic.from_rational(2),
            Cyclotomic.from_rational(Fraction(1, 2)),
            zeta(5) + 1,
            zeta(8) + zeta(8, 3),
            2 * zeta(12),
            Cyclotomic(20, {1: Fraction(3, 5), 3: Fraction(4, 5)}),
        ] + [random_element(rng, rng.choice([5, 8, 12, 15, 16, 21])) for _ in range(40)]
        for x in values:
            assert x._root_of_unity_parts() == _scan_root_of_unity_parts(x), x
        assert all(x._root_of_unity_parts() is None for x in values[:7])


def _sieve_phi_and_primes(limit):
    """phi(n) and the ascending primes of n for n <= limit, by a sieve."""
    phi = list(range(limit + 1))
    primes = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched so far: p is prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
                primes[m].append(p)
    return phi, primes


class TestOrderTables:
    def test_phi_and_primes_up_to_5000(self):
        phi, primes = _sieve_phi_and_primes(5000)
        try:
            for n in range(1, 5001):
                info = _order_info(n)
                assert info == (phi[n], tuple(primes[n])), n
                assert info == (euler_phi(n), tuple(factorize(n)))
                assert _order_info(n) is info  # factored once per order
        finally:
            _order_info.cache_clear()  # forget the orders no other test reads

    def test_is_prime_against_a_sieve(self):
        phi, _ = _sieve_phi_and_primes(10**5)
        assert [n for n in range(10**5 + 1) if is_prime(n)] == [
            n for n in range(2, 10**5 + 1) if phi[n] == n - 1
        ]

    def test_is_prime_past_the_sieve(self):
        # strong pseudoprimes to the bases 2..23 and 2..37: a base past them
        # finds each one composite
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        assert not is_prime(cy._MR_LIMIT - 2 * 3 * 5)
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(2**67 - 1)
        # above the Miller-Rabin range, trial division
        assert cy._MR_LIMIT < 3**52 < 2**83
        assert not is_prime(3**52) and not is_prime(2**83)

    def test_embeddings_descend_from_2_62(self):
        for n in (1, 4, 5, 11, 24, 120):
            previous = 1 << 62
            for i in range(3):
                ell, powers = cy._embedding(n, i)
                assert ell < previous and ell % n == 1 % n and is_prime(ell)
                assert all(is_prime(m) is False for m in range(ell + n, previous, n))
                g = powers[1] if n > 1 else 1
                assert len(powers) == n and powers[0] == 1 and pow(g, n, ell) == 1
                assert all(pow(g, n // q, ell) != 1 for q in factorize(n))
                previous = ell

    def test_polynomials_from_the_reduction_rows(self):
        # prod_{d | n} Phi_d(x) = x^n - 1
        for n in range(1, 61):
            prod = [1]
            for d in divisors(n):
                phi_d = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
            assert prod == [-1] + [0] * (n - 1) + [1], n


def _assert_matches_oracle(got, expected):
    """got: a value or exception type from the integer core; expected: the
    (order, coeffs) pair or exception type from the Fraction-dict oracle."""
    if isinstance(expected, type):
        assert got is expected
        return
    order, coeffs = expected
    assert not isinstance(got, type), got
    assert got.order == order and dict(got.items()) == coeffs
    assert got._den > 0 and gcd(got._den, *got._nums.values()) == 1
    rebuilt = Cyclotomic(order, coeffs)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert str(got) == fraction_str(expected)
    assert got.to_json() == fraction_json(expected)


def _check_core_against_oracle(values, ks):
    """dot, sum_cyclotomics and galois on values against the Fraction-dict core."""
    pairs = list(zip(values, reversed(values)))
    fpairs = [(fraction_value(a), fraction_value(b)) for a, b in pairs]
    _assert_matches_oracle(_outcome(dot, pairs), _outcome(fraction_dot, fpairs))
    fterms = [(0, fraction_value(x)) for x in values]
    _assert_matches_oracle(
        _outcome(sum_cyclotomics, values), _outcome(fraction_twisted_sum, 1, fterms, 0)
    )
    for x in values:
        for k in ks:
            _assert_matches_oracle(
                _outcome(x.galois, k), _outcome(fraction_galois, fraction_value(x), k)
            )


ORACLE_ORDERS = [1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24]


class TestIntegerCoreAgainstFractionOracle:
    def test_fixed_cases(self):
        r2 = zeta(8) + zeta(8, -1)
        values = [
            ZERO,
            ONE,
            Cyclotomic.from_rational(Fraction(-1, 3)),
            zeta(5),
            r2,
            Cyclotomic(12, {0: Fraction(1, 2), 1: -2, 3: Fraction(7, 3)}),
            Cyclotomic(20, {1: Fraction(3, 5), 3: Fraction(4, 5)}),
            Cyclotomic(9, {1: Fraction(1, 6), 2: Fraction(1, 6), 4: Fraction(5, 6)}),
            Cyclotomic(24, {5: Fraction(-6, 7)}),
        ]
        for i in range(len(values)):
            _check_core_against_oracle(values[i:] + values[:i], (1, 2, 5, 7, -1))
        _check_core_against_oracle([r2, r2], (3,))
        _check_core_against_oracle([zeta(3), zeta(3, 2)], (2,))

    def test_random_cases(self):
        rng = random.Random(SEED + 29)
        for _ in range(120):
            values = [
                random_element(rng, rng.choice(ORACLE_ORDERS), terms=rng.randint(0, 4))
                for _ in range(rng.randint(1, 4))
            ]
            ks = [rng.randrange(1, 60) for _ in range(3)]
            _check_core_against_oracle(values, ks)

    def test_past_the_order_cap(self):
        rng = random.Random(SEED + 31)
        cap = get_order_cap()
        try:
            set_order_cap(8)
            for _ in range(80):
                values = [
                    random_element(rng, rng.choice([1, 3, 4, 5, 7, 8, 9, 12]), terms=2)
                    for _ in range(rng.randint(1, 3))
                ]
                _check_core_against_oracle(values, (2, 3))
            # the lcm order 35 is over the cap; each product is rational
            _check_core_against_oracle([zeta(5), zeta(7), zeta(7, 6), zeta(5, 4)], ())
            with pytest.raises(InvalidOrderError):
                sum_cyclotomics([zeta(5), zeta(7)])
        finally:
            set_order_cap(cap)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)

        @st.composite
        def element(draw):
            n = draw(st.sampled_from(ORACLE_ORDERS))
            terms = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=4))
            return Cyclotomic(n, terms)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            st.lists(element(), min_size=1, max_size=4),
            st.integers(1, 59),
        )
        def check(values, k):
            _check_core_against_oracle(values, (k,))

        check()


def _triple(x):
    return x.order, x._nums, x._den


class TestInverseAgainstEuclidOracle:
    def test_random_values(self):
        rng = random.Random(SEED + 43)
        for n in ORACLE_ORDERS + [44, 60, 120]:
            for terms in (1, 2, 4, 7):
                x = random_element(rng, n, terms=terms)
                # a content shared by the numerators shares a factor with N(x)
                for y in (x, x * 6, x * Fraction(-4, 3)):
                    if y:
                        assert _triple(y.inverse()) == _triple(fraction_inverse(y))

    def test_datum_entries(self, data_dir):
        # every nonzero S entry, D^2 and p+ of the shipped data files
        values = set()
        for path in sorted(data_dir.glob("*.json")):
            datum = load(path)
            ds = derived_scalars(datum)
            values.update(v for row in datum.S for v in row if v)
            values.update((ds.global_dim_sq, ds.gauss_plus))
        assert len(values) > 18
        for x in values:
            assert _triple(x.inverse()) == _triple(fraction_inverse(x))


class TestHashEqContract:
    def test_dict_lookup_with_int_and_fraction_keys(self):
        table = {3: "three", Fraction(1, 2): "half", 0: "zero"}
        assert table.get(Cyclotomic(1, {0: 3})) == "three"
        assert table.get(Cyclotomic(12, {0: Fraction(2, 4)})) == "half"
        assert table.get(Cyclotomic(5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})) == "zero"
        back = {Cyclotomic(1, {0: 3}): "three", Cyclotomic.from_rational(Fraction(1, 2)): "half"}
        assert back.get(3) == "three" and back.get(Fraction(1, 2)) == "half"
        assert back.get(Fraction(6, 2)) == "three"

    def test_rationals_hash_like_their_fraction(self):
        assert hash(ONE) == hash(1) and hash(ZERO) == hash(0) and hash(-ONE) == hash(-1)
        for q in (Fraction(-7, 3), Fraction(1, 2), Fraction(10**20, 3), Fraction(5)):
            x = Cyclotomic.from_rational(q)
            assert x == q and hash(x) == hash(q)
            assert x != q + 1 and not (x == zeta(3))

    def test_one_value_at_several_orders(self):
        rng = random.Random(SEED + 37)
        for _ in range(40):
            x = random_element(rng, rng.choice([1, 3, 4, 5, 8, 12]))
            for mult in (2, 3, 4, 6, 10):
                n = x.order * mult
                y = Cyclotomic(n, {e * mult: c for e, c in x.items()})
                assert y == x and hash(y) == hash(x)


class _CountingFraction(Fraction):
    made = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


class TestFractionFreeHotPath:
    def test_hot_operations_build_no_fraction(self, monkeypatch):
        # order-1 values with a denominator hash through Fraction by contract,
        # so the rationals here are integers
        rng = random.Random(SEED + 41)
        values = [random_element(rng, rng.choice([3, 5, 8, 12, 15, 20])) for _ in range(12)]
        values += [Cyclotomic(20, {1: Fraction(3, 5), 3: Fraction(4, 5)}), ONE, -ONE, ZERO]
        values += [zeta(24, 5), -zeta(15, 2)]
        three = Cyclotomic.from_rational(3)
        monkeypatch.setattr(cy, "Fraction", _CountingFraction)
        _CountingFraction.made = 0
        for a, b in zip(values, values[1:] + values[:1]):
            dot([(a, b), (b, a), (a, a)])
            sum_cyclotomics([a, b, a])
            assert a + b == b + a and a * b == b * a
            assert (a == b) == (a - b == ZERO)
            assert a.galois(-1).galois(-1) == a and a.galois(13).galois(37) == a
            assert {a: 1}.get(a.galois(-1).galois(-1)) == 1
            assert bool(-a) == bool(a) and a.is_algebraic_integer in (True, False)
            a.root_of_unity_log()
            assert (a == 3) == (a == three) and (three == 3)
            if a:
                assert a * a.inverse() == ONE
        assert _CountingFraction.made == 0

    def test_scan_and_zeta_build_no_fraction(self, monkeypatch):
        from moddata import classifier

        monkeypatch.setattr(cy, "Fraction", _CountingFraction)
        # the classifier imports no Fraction; bind one anyway so a use would count
        monkeypatch.setattr(classifier, "Fraction", _CountingFraction, raising=False)
        _CountingFraction.made = 0
        assert classifier.vanishing_sum_scan(24) == []
        for n in range(1, 61):
            for e in range(-3, 2 * n):
                zeta(n, e)
        assert _CountingFraction.made == 0


class TestZetaClosedForm:
    """zeta(n, e) is built in canonical form with no __init__; it must be the
    value Cyclotomic(n, {e: 1}) canonicalizes to."""

    @staticmethod
    def check(n, e):
        got, ref = zeta(n, e), Cyclotomic(n, {e: 1})
        assert (got.order, got._nums, got._den, hash(got)) == (
            ref.order,
            ref._nums,
            ref._den,
            hash(ref),
        ), (n, e)

    def test_every_exponent_to_order_300(self):
        for n in range(1, 301):
            for e in range(-3, 2 * n):
                self.check(n, e)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.integers(1, 1000), st.integers(-(10**6), 10**6))
        def check(n, e):
            self.check(n, e)

        check()

    def test_order_cap_checked_before_reduction(self):
        # zeta_202^101 = -1 and zeta_44^4 = zeta_11 (phi 10), but phi(202) and
        # phi(44) are over the cap
        cap = get_order_cap()
        try:
            set_order_cap(10)
            for n, e in [(101, 1), (202, 101), (44, 4), (1000, 0)]:
                with pytest.raises(InvalidOrderError):
                    zeta(n, e)
            assert zeta(22, 2) == zeta(11) and zeta(22, 11) == -ONE
        finally:
            set_order_cap(cap)
        with pytest.raises(InvalidOrderError):
            zeta(0)
