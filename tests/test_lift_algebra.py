"""The lift builder does the matrix algebra once per datum and checks each of
the 12 lifts by scalar equations.  Every lift is compared with the dense matrix
check it replaces on (lam S, mu T), with lam and mu computed by
Cyclotomic.inverse: s^4 = Id by two r x r products and (st)^3 = s^2 by the
dense oracle.  t, its level and its exponents come from product_twists, the
Cyclotomic products that the exponent arithmetic of _lifts replaces.  A lift
stores S and its scalar, and forms s = lam i^-a S only when read: s is
compared with scale(S, lam i^-a), the full matrix _lifts formed before, and
the lift paths that need no s are pinned to form none."""

from collections import namedtuple
from functools import lru_cache
from math import lcm
from pathlib import Path

import pytest

from moddata import _matrix as mat
from moddata import cli
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import ONE, ZERO, zeta
from moddata.galois import compute_profile, galois_twist_symmetry
from moddata.modular_data import (
    ModularDatum,
    NotGaloisStable,
    _characters,
    _s_facts,
    derived_scalars,
    load,
    replace,
)
from moddata.sl2z_reps import (
    ModularRep,
    NotModularRepresentation,
    _anomaly_sixth_root,
    _lifts,
    all_lifts,
    normalize,
    spectra_connectivity,
)
from _oracles import dense_st_cubed_is, entrywise, mpmath_complex_eval, oracle_profile, product_twists, scale

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BUILDERS = {
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (1, 2, 3, 5, 6)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (1, 3, 5, 7, 9)},
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
}


@lru_cache(maxsize=None)
def datum_of(name):
    return BUILDERS[name]()


OracleLift = namedtuple("OracleLift", "s t level t_exponents parity")


def oracle_lift(datum, a):
    """s = (zeta^3/(x^3 p+)) S for x = zeta_12^a and t = (x/zeta) T, checked
    by r x r matmuls."""
    ds = derived_scalars(datum)
    zeta6 = zeta(*_anomaly_sixth_root(datum))
    lam = zeta6**3 * (zeta(12, 3 * a) * ds.gauss_plus).inverse()
    s = scale(datum.S, lam)
    t, level, exps = product_twists(datum, a)
    s2 = mat.matmul(s, s)
    if mat.matmul(s2, s2) != mat.eye(len(s)):
        raise NotModularRepresentation("s^4 != Id")
    if not dense_st_cubed_is(s, t, ONE):
        raise NotModularRepresentation("(st)^3 != s^2")
    eye = mat.eye(len(s))
    parity = "even" if s2 == eye else "odd" if s2 == scale(eye, -ONE) else "neither"
    return OracleLift(s, t, level, exps, parity)


@lru_cache(maxsize=None)
def oracle_lifts(datum):
    """The 12 lifts by the matrix oracle; equal data (a catalog datum and its
    file in data/) are checked once."""
    return tuple(oracle_lift(datum, a) for a in range(12))


def oracle_canonical_exp(datum):
    """x = +-1 = zeta_12^(0 or 6), the sign of p+/zeta^3 at the principal embedding."""
    ds = derived_scalars(datum)
    cand = ds.gauss_plus * (zeta(*_anomaly_sixth_root(datum)) ** 3).inverse()
    return 0 if mpmath_complex_eval(cand).real > 0 else 6


def assert_same_rep(rep, expected):
    assert rep.s == expected.s
    assert rep.t == expected.t
    assert rep.level == expected.level
    assert rep.t_exponents == expected.t_exponents
    assert rep.parity == expected.parity


def assert_stored_perms(rep, datum):
    """The _SFacts.h_sigma that rep reads is (c, the perms of oracle_profile),
    c the conductor of the character values s_ia / s_0a."""
    c = lcm(*(v.conductor for col in _characters(rep.s) for v in col))
    assert _s_facts(rep.S).h_sigma == (c, oracle_profile(datum)[1])


@pytest.mark.parametrize("name", list(BUILDERS))
def test_lifts_match_matrix_oracle(name):
    datum = datum_of(name)
    reps = all_lifts(datum)
    expected = oracle_lifts(datum)
    assert len(reps) == 12
    for rep, oracle in zip(reps, expected):
        assert_same_rep(rep, oracle)
        assert_stored_perms(rep, datum)
    # the 12 lifts share one S, and so one map
    assert all(rep.S is datum.S for rep in reps)
    assert_same_rep(normalize(datum), expected[oracle_canonical_exp(datum)])


@pytest.mark.parametrize("name", list(BUILDERS))
def test_stored_characters_change_no_result(name):
    datum = datum_of(name)
    root = _anomaly_sixth_root(datum)
    # a copy built by hand from s is the lift, and reads the lift's map
    for a, rep in enumerate(all_lifts(datum)):
        bare = replace(rep, S=rep.s, lam=ONE)
        assert bare == rep and hash(bare) == hash(rep)
        assert galois_twist_symmetry(bare) == galois_twist_symmetry(rep)
        assert _lifts(datum, root, (a,)) == (rep,)
    rep = normalize(datum)
    bare = replace(rep, S=rep.s, lam=ONE)
    assert compute_profile(datum, bare).to_json() == compute_profile(datum, rep).to_json()


def negate_pair(S, i, j):
    rows = [list(row) for row in S]
    rows[i][j], rows[j][i] = -rows[i][j], -rows[j][i]
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize(
    "perturb, witness",
    [
        (lambda S: negate_pair(S, 1, 2), "s^4 != Id"),
        (lambda S: entrywise(S, lambda v: v.galois(2)), "(st)^3 != s^2"),
    ],
    ids=["negated-entry", "sigma_2(S)"],
)
def test_perturbed_data_fail_like_the_oracle(perturb, witness):
    base = pointed_zn(5)
    datum = replace(base, S=perturb(base.S))
    root = _anomaly_sixth_root(datum)
    for build in (lambda: all_lifts(datum), lambda: normalize(datum)):
        with pytest.raises(NotModularRepresentation) as exc:
            build()
        assert str(exc.value) == witness
    for a in range(12):
        with pytest.raises(NotModularRepresentation) as new:
            _lifts(datum, root, (a,))
        with pytest.raises(NotModularRepresentation) as old:
            oracle_lift(datum, a)
        assert str(new.value) == str(old.value) == witness


def test_vanishing_dimension_leaves_characters_unset():
    # S = Id with theta = (1, zeta_3): every lift is a representation, but the
    # characters s_i1 / s_01 are undefined
    datum = ModularDatum(2, 3, (0, 1), ((ONE, ZERO), (ZERO, ONE)))
    for a, rep in enumerate(all_lifts(datum)):
        assert isinstance(_s_facts(rep.S).h_sigma, NotGaloisStable)
        assert_same_rep(rep, oracle_lift(datum, a))
        with pytest.raises(NotGaloisStable, match="vanishing first-row entry"):
            galois_twist_symmetry(rep)


SCALED = {
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (3, 5)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (5, 7, 31)},
}


@pytest.mark.parametrize("name", list(SCALED))
def test_each_lift_is_its_scalar_times_S(name):
    """s = lam i^-a S for lam = zeta^3 / p+, zeta the anomaly's sixth root."""
    datum = SCALED[name]()
    lam = zeta(*_anomaly_sixth_root(datum)) ** 3 * derived_scalars(datum).gauss_plus.inverse()
    for a, rep in enumerate(all_lifts(datum)):
        assert rep.S is datum.S
        assert rep.s == scale(datum.S, lam * zeta(4, -a))


@pytest.mark.parametrize("name", ["su2_odd_mod2(5)", "pointed_zn(7)", "su2_4_family_3.json"])
def test_lift_paths_form_no_s(name):
    datum = datum_of(name)
    reps = all_lifts(datum)
    for rep in reps:
        galois_twist_symmetry(rep)
        spectra_connectivity(rep)
    assert not any("s" in vars(rep) for rep in reps)
    assert reps[5].s == scale(datum.S, reps[5].lam) and "s" in vars(reps[5])


def test_rep_command_forms_no_s(capsys):
    path = DATA_DIR / "su2_9_mod2.json"
    normalize.cache_clear()
    for argv in (["rep", str(path)], ["--json", "rep", str(path)]):
        assert cli.main(argv) == 0
    rep = normalize(load(path))
    assert "s" not in vars(rep)


def old_key(rep):
    """What == and hash read when ModularRep stored the matrix s."""
    return rep.rank, rep.s, rep.level, rep.t_exponents, rep.parity


@pytest.mark.parametrize("name", ["su2_odd_mod2(5)", "pointed_zn(7)", "pointed_z5.json"])
def test_a_rep_built_from_s_is_its_lift(name):
    reps = all_lifts(datum_of(name)) + [normalize(datum_of(name))]
    for rep in reps:
        hand = ModularRep(rep.s, rep.level, rep.t_exponents, rep.parity)
        assert hand == rep and hash(hand) == hash(rep)
        assert (hand.S, hand.lam) == (rep.S, rep.lam) and hand.s == rep.s
        assert [hand == other for other in reps] == [old_key(rep) == old_key(other) for other in reps]
        assert hand != replace(hand, S=scale(hand.s, -ONE), lam=ONE)


def test_a_rep_with_s00_zero_keeps_its_matrix():
    s = ((ZERO, ONE), (ONE, ZERO))
    rep = ModularRep(s, 2, (0, 1), "even")
    assert (rep.S, rep.lam) == (s, ONE) and rep.s == s
    twin = ModularRep(tuple(map(tuple, s)), 2, (0, 1), "even")
    assert twin == rep and hash(twin) == hash(rep)
    assert ModularRep(scale(s, -ONE), 2, (0, 1), "even") != rep
