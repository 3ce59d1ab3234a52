import re

import pytest

from moddata.catalog import (
    InvalidFamilyError,
    InvalidParametersError,
    NotModularError,
    pointed_zn,
    su2_4_family,
    su2_4_parameter_tuples,
    su2_odd_mod2,
)
from moddata.cyclotomic import ONE, zeta
from moddata.modular_data import check_admissible, derived_scalars, fs_exponent, verlinde_fusion
from _oracles import mpmath_complex_eval


class TestSu2OddMod2:
    def test_p5_admissible_with_fsexp_11(self, su2_9):
        assert su2_9.rank == 5 and su2_9.torder == 11
        assert check_admissible(su2_9).passed
        assert fs_exponent(su2_9, verlinde_fusion(su2_9)) == 11

    @pytest.mark.parametrize("p,q", [(2, 5), (3, 7)])
    def test_small_ranks(self, p, q):
        datum = su2_odd_mod2(p)
        assert datum.rank == p and datum.torder == q
        assert check_admissible(datum).passed

    def test_q_not_prime_rejected(self):
        with pytest.raises(InvalidFamilyError):
            su2_odd_mod2(4)  # q = 9
        with pytest.raises(InvalidFamilyError):
            su2_odd_mod2(7)  # q = 15

    def test_conj_not_a_unit_rejected(self):
        with pytest.raises(InvalidFamilyError, match="^conj = 11 is not a unit mod 11$"):
            su2_odd_mod2(5, 11)

    def test_conjugates_are_relabelings(self):
        from moddata.classifier import grothendieck_equiv

        base = verlinde_fusion(su2_odd_mod2(5, 1))
        for conj in (2, 10):
            other = verlinde_fusion(su2_odd_mod2(5, conj))
            assert grothendieck_equiv(base, other) is not None

    def test_dual_pair_among_conjugate_lifts(self):
        from moddata.sl2z_reps import normalize, signed_perm_match

        # conj and its inverse lift to equivalent representations ...
        lift2 = normalize(su2_odd_mod2(5, 2))
        lift6 = normalize(su2_odd_mod2(5, 6))
        assert signed_perm_match(lift2, lift6) is not None
        # ... while complex conjugation realizes the other member of the
        # dual pair of level-11 degree-5 irreducibles
        lift1 = normalize(su2_odd_mod2(5, 1))
        lift10 = normalize(su2_odd_mod2(5, 10))
        assert signed_perm_match(lift1, lift10) is None

    def test_dims_positive_for_principal(self, su2_9):
        for d in su2_9.dims:
            assert mpmath_complex_eval(d).real > 0

    def test_sine_ratio_values(self, su2_9):
        import math

        q = 11
        for i in range(5):
            for j in range(5):
                expected = math.sin((2 * i + 1) * (2 * j + 1) * math.pi / q) / math.sin(
                    math.pi / q
                )
                assert su2_9.S[i][j].complex_eval().real == pytest.approx(
                    expected, abs=1e-9
                )


class TestPointed:
    def test_z5_integral(self, pointed_z5):
        assert pointed_z5.rank == 5
        assert all(d == ONE for d in pointed_z5.dims)
        assert check_admissible(pointed_z5).passed

    def test_trivial(self):
        datum = pointed_zn(1)
        assert datum.rank == 1 and check_admissible(datum).passed

    def test_z3(self):
        assert check_admissible(pointed_zn(3, 1)).passed

    def test_other_unit(self):
        assert check_admissible(pointed_zn(5, 2)).passed

    def test_even_n_rejected(self):
        with pytest.raises(InvalidFamilyError):
            pointed_zn(4)

    def test_degenerate_form_rejected(self):
        with pytest.raises(NotModularError):
            pointed_zn(9, 3)


class TestSu24Family:
    def test_sixteen_distinct(self, su2_4_all):
        assert len(su2_4_all) == 16
        assert len(set(su2_4_all)) == 16

    def test_all_admissible(self, su2_4_all):
        for datum in su2_4_all:
            assert check_admissible(datum).passed

    def test_global_dim_12(self, su2_4_all):
        for datum in su2_4_all:
            assert derived_scalars(datum).global_dim_sq == 12

    def test_constraint_violation_rejected(self):
        nu1, nu2, theta2, theta3 = su2_4_parameter_tuples()[0]
        bad_theta3 = theta3 * zeta(4)  # squares to the wrong 4th root
        with pytest.raises(InvalidParametersError):
            su2_4_family(nu1, nu2, theta2, bad_theta3)

    def test_bad_theta2_rejected(self):
        with pytest.raises(InvalidParametersError):
            su2_4_family(1, 1, zeta(4), zeta(8))

    @pytest.mark.parametrize(
        "nu1, theta3, message",
        [(2, zeta(8), "nu1, nu2 must be +-1"), (1, zeta(4), "theta3 = z4 is not a primitive 8th root")],
    )
    def test_bad_sign_or_theta3_rejected(self, nu1, theta3, message):
        # each would fail theta3^2 = -nu2*nu3*i too: the message tells the checks apart
        with pytest.raises(InvalidParametersError, match=f"^{re.escape(message)}$"):
            su2_4_family(nu1, 1, zeta(3), theta3)

    def test_s_matrix_shape(self, su2_4_all):
        datum = su2_4_all[0]
        two = 2 * ONE
        assert datum.S[2][2] == -two
        assert not datum.S[2][3] and not datum.S[2][4]
        assert datum.S[3][4] == -datum.S[3][3]

    def test_gal_is_single_transposition(self, su2_4_all):
        from moddata.galois import compute_profile

        for datum in su2_4_all:
            image = compute_profile(datum).image()
            assert image == {(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)}
