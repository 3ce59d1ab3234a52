"""The one exact check of the modular relation (ST)^3 = cS^2,
`_matrix._st_cubed_is`, against the dense oracle, and the identity
(ST)^3 - cS^2 = S R behind it, with R = T(ST)^2 - cS from the matmul
oracle `matmul_st_residual`."""

from pathlib import Path

import pytest

from moddata import _matrix as mat
from moddata.catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, units_mod, zeta
from moddata.field_theory import _fixer_of_order_above_2, is_modularly_admissible
from moddata.modular_data import (
    ModularDatum,
    _SFacts,
    check_admissible,
    derived_scalars,
    load,
    replace,
)
from moddata.sl2z_reps import all_lifts
from _oracles import dense_st_cubed_is, entrywise, matmul_st_residual, scale, scale_cols
from test_lift_algebra import BUILDERS, datum_of, negate_pair
from test_modular_data import OFF_UNITARITY, perturb_twist

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def minus(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero(m):
    return not any(v for row in m for v in row)


def check_against_oracle(s, t, c):
    """The routine's verdict equals the dense one, and (ST)^3 - cS^2 = S R
    entry by entry; returns (verdict, R)."""
    res = matmul_st_residual(s, t, c)
    cube_minus = minus(mat.mat_pow(scale_cols(s, t), 3), scale(mat.matmul(s, s), c))
    assert cube_minus == mat.matmul(s, res)
    verdict = mat._st_cubed_is(_SFacts(s), t, c)
    assert verdict == dense_st_cubed_is(s, t, c)
    return verdict, res


def su2_4_bad_theta3():
    """The datum of test_modular_data's test_bad_theta3_fails."""
    datum = su2_4_family_all()[0]
    exps = list(datum.t_exponents)
    exps[3] = (exps[3] + 6) % 24
    return ModularDatum(5, 24, tuple(exps), datum.S)


ADMISSIBLE = {
    **{f"catalog:{name}": (lambda d=d: d) for name, d in rank5_catalog()},
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
}

FAILING = {
    **{f"off-unitarity-{i}": build for i, (build, _) in enumerate(OFF_UNITARITY)},
    "su2_9-theta1+1": lambda: perturb_twist(su2_odd_mod2(5), 1, 1),
    "su2_9-theta2+3": lambda: perturb_twist(su2_odd_mod2(5), 2, 3),
    "su2_4-theta3*i": su2_4_bad_theta3,
    "z5-negated-entry": lambda: replace(pointed_zn(5), S=negate_pair(pointed_zn(5).S, 1, 2)),
    "z5-sigma_2(S)": lambda: replace(
        pointed_zn(5), S=entrywise(pointed_zn(5).S, lambda v: v.galois(2))
    ),
}


@pytest.mark.parametrize("name", list(ADMISSIBLE))
def test_admissible_data_hold_with_p_plus(name):
    datum = ADMISSIBLE[name]()
    verdict, res = check_against_oracle(datum.S, datum.thetas, derived_scalars(datum).gauss_plus)
    assert verdict and is_zero(res)


@pytest.mark.parametrize("name", list(FAILING))
def test_failing_data_agree_with_p_plus(name):
    datum = FAILING[name]()
    verdict, res = check_against_oracle(datum.S, datum.thetas, derived_scalars(datum).gauss_plus)
    assert not verdict and not is_zero(res)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_all_lifts_hold_with_one(name):
    for rep in all_lifts(datum_of(name)):
        assert mat._st_cubed_is(_SFacts(rep.s), rep.t, ONE)
        assert dense_st_cubed_is(rep.s, rep.t, ONE)


def rat(v):
    return Cyclotomic.from_rational(v)


def matrix(*rows):
    return tuple(tuple(rat(v) if isinstance(v, int) else v for v in row) for row in rows)


# (s, t, c, holds): none of these s is symmetric and invertible at once
FIXED = [
    # nilpotent: R = -s != 0 but S R = -s^2 = 0, so the relation holds only
    # through the second product
    (matrix((0, 1), (0, 0)), (ONE, ONE), ONE, True),
    (matrix((0, 1), (0, 0)), (ONE, zeta(3)), rat(2), True),
    (matrix((0, 0, 1), (0, 0, 0), (0, 0, 0)), (ONE, zeta(4), -ONE), zeta(5), True),
    (matrix((0, 1, 0), (0, 0, 1), (0, 0, 0)), (ONE, ONE, ONE), ONE, False),
    (matrix((1, 0), (0, 0)), (ONE, zeta(3)), ONE, True),
    (matrix((1, 0), (0, 0)), (zeta(3), ONE), ONE, True),
    (matrix((1, 0), (0, 0)), (zeta(4), ONE), ONE, False),
    (matrix((1, 2), (2, 4)), (ONE, ONE), rat(5), True),  # s^2 = 5s
    (matrix((1, 2), (2, 4)), (ONE, ONE), rat(4), False),
    (matrix((1, 2), (3, 4)), (ONE, zeta(8)), rat(-1), False),
    (matrix((1, 1), (0, 0)), (ONE, -ONE), ONE, False),
    (matrix((0, 0), (0, 0)), (ONE, zeta(7)), zeta(7), True),
]


@pytest.mark.parametrize("s, t, cc, holds", FIXED)
def test_fixed_small_matrices(s, t, cc, holds):
    assert check_against_oracle(s, t, cc)[0] is holds


def test_nilpotent_case_needs_the_second_product():
    s, t, cc, _ = FIXED[0]
    res = matmul_st_residual(s, t, cc)
    assert res == entrywise(s, lambda v: -v)
    assert is_zero(mat.matmul(s, res))
    assert mat._st_cubed_is(_SFacts(s), t, cc)


def test_sr_fallback_bound_is_r_h_s_times_the_bound_of_r(monkeypatch):
    # d L (SR)_ik = sum_l (d s_il)(L R_lk), d the denominator of _size(s):
    # r terms, each at most h_s B_R, so the SR fallback bounds by r h_s B_R
    s, t, cc, _ = FIXED[2]
    bounds, first = [], mat._first_nonzero
    monkeypatch.setattr(mat, "_first_nonzero", lambda terms, e: bounds.append(mat._bound(terms)[2]) or first(terms, e))
    assert mat._st_cubed_is(_SFacts(s), t, cc)
    r, flat = len(s), [v for row in s for v in row]
    bound_r = mat._bound(((r, t, t, t, flat, flat), (1, [cc], flat)))[2]
    assert bounds == [bound_r, r * mat._size(flat)[0] * bound_r]
    assert bounds[1] > bounds[0]


def test_residual_identity_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    entry = st.sampled_from([ZERO, ZERO, ONE, -ONE, rat(2), zeta(3), zeta(4), zeta(8, 3)])
    root = st.sampled_from([ONE, -ONE, zeta(3), zeta(4), zeta(5, 2), zeta(12, 7)])

    @st.composite
    def case(draw):
        r = draw(st.integers(1, 3))
        s = tuple(tuple(draw(entry) for _ in range(r)) for _ in range(r))
        t = tuple(draw(root) for _ in range(r))
        return s, t, draw(entry)

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(case())
    def check(args):
        check_against_oracle(*args)

    check()


def old_fixer_loop(n, values):
    """The loop condition (vi) and is_modularly_admissible each ran: the
    Galois test first, then the order test."""
    for k in units_mod(n):
        if all(v.galois(k) == v for v in values) and (k * k) % n != 1 % n:
            return k
    return None


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 11, 15, 16, 21, 24, 35, 40, 48])
def test_fixer_matches_the_old_loop(n):
    candidates = [
        [rat(1)],
        [zeta(n)],
        [zeta(n) + zeta(n, -1)],
        [zeta(n, 2) - zeta(n, -2)],
        [zeta(n) + zeta(n, 2) + zeta(n, 4)],
    ]
    for values in candidates:
        assert _fixer_of_order_above_2(n, values) == old_fixer_loop(n, values)


def test_fixer_witnesses_unchanged():
    facts = is_modularly_admissible(9, [rat(1)])
    assert not facts.ok and facts.witness == "sigma_2 fixes K but has order > 2"
    datum = ModularDatum(2, 9, (0, 1), matrix((1, 1), (1, -1)))
    report = check_admissible(datum)
    assert [(x.ok, x.witness) for x in report.conditions][5] == (
        False,
        "Gal(F_T/F_S) has sigma_2 of order > 2",
    )
