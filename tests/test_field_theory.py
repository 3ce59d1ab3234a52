from itertools import combinations_with_replacement

import pytest

from _oracles import p3_levels, unit_quotient_shape
from moddata.catalog import su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, get_order_cap, set_order_cap, sqrt_int, zeta
from moddata.field_theory import (
    BadLevelError,
    FERMAT_PRIMES,
    GroupShape,
    enumerate_levels,
    is_modularly_admissible,
    odd_prime_constraints,
    subfield_conductor,
)
from moddata.modular_data import ModularDatum, cauchy_prime_support


class TestConductor:
    def test_sqrt2(self):
        assert subfield_conductor([sqrt_int(2)]) == 8

    def test_zeta3(self):
        assert subfield_conductor([zeta(3)]) == 3

    def test_rational(self):
        assert subfield_conductor([Cyclotomic.from_rational(1) / 2]) == 1

    def test_sqrt2_divisor_scan(self):
        # oracle: for each divisor m of 8, fixed-field membership via the
        # subgroup of units congruent to 1 mod m
        from moddata.cyclotomic import units_mod

        r2 = sqrt_int(2)
        in_qm = {
            m: all(
                r2.galois(k) == r2
                for k in units_mod(8)
                if k % m == 1 % m
            )
            for m in (1, 2, 4, 8)
        }
        assert in_qm == {1: False, 2: False, 4: False, 8: True}
        assert subfield_conductor([r2]) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subfield_conductor([])


class TestModularAdmissibility:
    def test_q8_over_sqrt2(self):
        facts = is_modularly_admissible(8, [sqrt_int(2)])
        assert facts.ok and facts.conductor == 8
        assert facts.quotient_divides_24 and facts.gcd_divides_2
        assert facts.gal_over_conductor_in_z2_cubed

    def test_q9_over_q_not_admissible(self):
        facts = is_modularly_admissible(9, [Cyclotomic.from_rational(1)])
        assert not facts.ok

    def test_su2_9_field(self, su2_9):
        gens = [v for row in su2_9.S for v in row]
        assert is_modularly_admissible(11, gens).ok

    def test_generator_outside_field(self):
        with pytest.raises(BadLevelError):
            is_modularly_admissible(5, [sqrt_int(2)])


class TestEnumerateLevels:
    def test_p5_matches_divisibility_window(self):
        levels = enumerate_levels(GroupShape(5, (1,)))
        assert levels == frozenset(
            n for n in range(1, 265) if n % 11 == 0 and 264 % n == 0
        )

    def test_p3_two_branches(self):
        levels = enumerate_levels(GroupShape(3, (1,)))
        expected = frozenset(
            n for n in range(1, 169) if n % 7 == 0 and 168 % n == 0
        ) | {9, 18, 36, 72}
        assert levels == expected

    def test_p7_empty(self):
        # q = 15 is composite and 7 = 1 mod 3
        assert enumerate_levels(GroupShape(7, (1,))) == frozenset()

    def test_even_exponent_empty_for_large_p(self):
        assert enumerate_levels(GroupShape(5, (2,))) == frozenset()

    def test_multiquadratic_divides_240(self):
        for m in (1, 2, 3):
            levels = enumerate_levels(GroupShape.elementary2(m))
            assert levels and all(240 % n == 0 for n in levels)

    def test_p2_levels_are_fermat_products(self):
        for n in enumerate_levels(GroupShape(2, (2,))):
            m = n
            while m % 2 == 0:
                m //= 2
            for q in FERMAT_PRIMES:
                if m % q == 0:
                    m //= q
            assert m == 1

    def test_cross_check_against_unit_groups(self):
        # every enumerated level realizes the shape as (Z/n)*/Omega_2
        for shape, expected in [
            (GroupShape(5, (1,)), (5,)),
            (GroupShape(3, (1,)), (3,)),
            (GroupShape(11, (1,)), (11,)),
        ]:
            levels = enumerate_levels(shape)
            assert levels
            for n in levels:
                assert unit_quotient_shape(n) == expected, (n, shape)

    def test_shape_past_the_order_cap_is_refused(self):
        # 2*3^13+1 = 3188647 <= 2*2000^2 < 2*3^14+1 = 9565939; every level of
        # p = 3, r = 13 is a multiple of 3^14 or of 2*3^13+1
        assert min(enumerate_levels(GroupShape(3, (13,)))) == 3**14
        for p, rs in ((3, (14,)), (3, (1, 10**9)), (191, (3,)), (8_000_009, (1,))):
            with pytest.raises(ValueError, match="no level is an order$"):
                GroupShape(p, rs)
        with pytest.raises(ValueError, match="is not prime$"):
            GroupShape(2 * (2**61 - 1), (1,))
        cap = get_order_cap()
        try:
            set_order_cap(10)  # 2*10^2 = 200 lies between 2*5+1 and 2*5^3+1
            assert enumerate_levels(GroupShape(5, (1,)))
            with pytest.raises(ValueError, match="no level is an order$"):
                GroupShape(5, (3,))
        finally:
            set_order_cap(cap)

    def test_p3_matches_the_per_index_loop(self):
        for size in range(1, 5):
            for rs in combinations_with_replacement((1, 2, 3, 5), size):
                assert enumerate_levels(GroupShape(3, rs)) == p3_levels(rs), rs

    def test_elementary2_past_the_order_cap_is_refused(self):
        # 2^m | phi(n) <= cap: at the default cap 2000, m = 10 is the largest
        assert get_order_cap().bit_length() == 11
        assert enumerate_levels(GroupShape.elementary2(10))
        for m in (11, 10**6):  # 10**9 runs in a memory-capped child in test_cli.py
            with pytest.raises(ValueError, match="no level is an order$"):
                GroupShape.elementary2(m)
        # however it is spelled
        with pytest.raises(ValueError, match="no level is an order$"):
            GroupShape.parse("p=2," + ",".join(["r=1"] * 11))
        assert enumerate_levels(GroupShape.parse("p=2," + ",".join(["r=1"] * 10)))
        cap = get_order_cap()
        try:
            set_order_cap(8)
            assert enumerate_levels(GroupShape.elementary2(3))
            with pytest.raises(ValueError, match="no level is an order$"):
                GroupShape.elementary2(4)
        finally:
            set_order_cap(cap)

    def test_parse(self):
        assert GroupShape.parse("p=3,m=1,r=1") == GroupShape(3, (1,))
        assert GroupShape.parse("p=5,r=1,r=3") == GroupShape(5, (1, 3))
        assert GroupShape.parse("multiquadratic,m=2") == GroupShape.elementary2(2)
        with pytest.raises(ValueError):
            GroupShape.parse("p=4,m=1,r=1")

    def test_elementary2_is_the_plain_shape(self):
        # (Z/2)^m is one shape however it is spelled
        assert GroupShape(2, (1, 1)) == GroupShape.elementary2(2)
        assert hash(GroupShape(2, (1, 1))) == hash(GroupShape.elementary2(2))
        assert GroupShape.parse("p=2,r=1,r=1") == GroupShape.parse("multiquadratic,m=2")


class TestOddPrimeConstraints:
    def test_q11_with_p5(self):
        assert odd_prime_constraints(11, 5).ok

    def test_13_fails(self):
        verdict = odd_prime_constraints(13)
        assert not verdict.ok and "13" in verdict.witness

    def test_121_not_simple(self):
        verdict = odd_prime_constraints(121)
        assert not verdict.ok and "simple" in verdict.witness

    def test_small_primes_ignored(self):
        assert odd_prime_constraints(24).ok

    @pytest.mark.parametrize(
        "n, p, witness", [(23, 3, "23 != 2*3^r + 1"), (31, None, "(31-1)/2 is not a prime power")]
    )
    def test_q_not_twice_a_prime_power_plus_one(self, n, p, witness):
        # 23 = 2 * 11 + 1 with 11 no power of 3; 31 = 2 * 15 + 1 with 15 = 3 * 5
        verdict = odd_prime_constraints(n, p)
        assert not verdict.ok and verdict.witness == witness


class TestCauchySupport:
    def test_su2_9(self, su2_9):
        support = cauchy_prime_support(su2_9)
        assert support.ok
        assert support.norm_primes == frozenset({11})
        assert support.torder_primes == frozenset({11})

    def test_su2_4(self, su2_4_all):
        support = cauchy_prime_support(su2_4_all[0])
        assert support.ok and support.norm_primes == frozenset({2, 3})

    def test_disjoint_supports_fail(self):
        # synthetic: D^2 = 12 data relabeled with torder 5 twists
        datum = su2_odd_mod2(2)  # rank 2, q = 5
        assert cauchy_prime_support(datum).ok
        bad = ModularDatum(
            datum.rank, 3, (0, 1), datum.S
        )
        assert not cauchy_prime_support(bad).ok


class TestUnitQuotientShape:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (11, (5,)),
            (88, (5,)),
            (9, (3,)),
            (7, (3,)),
            (5, (2,)),
            (16, (2,)),
            (32, (4,)),
            (1, ()),
        ],
    )
    def test_values(self, n, expected):
        assert unit_quotient_shape(n) == expected
