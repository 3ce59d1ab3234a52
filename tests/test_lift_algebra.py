"""The lift builder does the matrix algebra once per datum and checks each of
the 12 lifts by scalar equations.  Every lift is compared with the matrix
check it replaces: `_build_rep` on (lam S, mu T), with lam and mu computed by
Cyclotomic.inverse."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from moddata import _matrix as mat
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, zeta
from moddata.galois import (
    NotGaloisStable,
    _characters,
    compute_profile,
    galois_twist_symmetry,
)
from moddata.modular_data import ModularDatum, derived_scalars, load
from moddata.sl2z_reps import (
    NotModularRepresentation,
    _anomaly_sixth_root,
    _build_rep,
    all_lifts,
    normalize,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BUILDERS = {
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (1, 2, 3, 5, 6)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (1, 3, 5, 7, 9)},
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
}


@lru_cache(maxsize=None)
def datum_of(name):
    return BUILDERS[name]()


def oracle_lift(datum, x):
    """s = (zeta^3/(x^3 p+)) S, t = (x/zeta) T, checked by r x r matmuls."""
    ds = derived_scalars(datum)
    zeta6 = _anomaly_sixth_root(datum)
    lam = zeta6**3 * (x**3 * ds.gauss_plus).inverse()
    mu = x * zeta6.inverse()
    return _build_rep(mat.scale(datum.S, lam), tuple(mu * th for th in datum.thetas))


@lru_cache(maxsize=None)
def oracle_lifts(datum):
    """The 12 lifts by the matrix oracle; equal data (a catalog datum and its
    file in data/) are checked once."""
    return tuple(oracle_lift(datum, zeta(12, a)) for a in range(12))


def oracle_canonical_exp(datum):
    """x = +-1 = zeta_12^(0 or 6), the sign of p+/zeta^3 at the principal embedding."""
    ds = derived_scalars(datum)
    cand = ds.gauss_plus * (_anomaly_sixth_root(datum) ** 3).inverse()
    return 0 if cand.complex_eval().real > 0 else 6


def assert_same_rep(rep, expected):
    assert rep.s == expected.s
    assert rep.t == expected.t
    assert rep.level == expected.level
    assert rep.parity == expected.parity


def assert_character_columns(rep):
    """rep.characters[a][i] = s_ia / s_0a, checked by multiplying back."""
    cols = rep.characters
    assert len(cols) == rep.rank
    for a, col in enumerate(cols):
        assert [v * rep.s[0][a] for v in col] == [row[a] for row in rep.s]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_lifts_match_matrix_oracle(name):
    datum = datum_of(name)
    reps = all_lifts(datum)
    expected = oracle_lifts(datum)
    assert len(reps) == 12
    for rep, oracle in zip(reps, expected):
        assert_same_rep(rep, oracle)
        assert_character_columns(rep)
    assert_same_rep(normalize(datum), expected[oracle_canonical_exp(datum)])


@pytest.mark.parametrize("name", ["su2_odd_mod2(3)", "pointed_zn(5)", "su2_4_family_3.json"])
def test_stored_characters_change_no_result(name):
    datum = datum_of(name)
    zeta6 = _anomaly_sixth_root(datum)
    for a, rep in enumerate(all_lifts(datum)):
        bare = replace(rep, characters=None)
        assert bare == rep and hash(bare) == hash(rep)
        assert galois_twist_symmetry(bare) == galois_twist_symmetry(rep)
        assert normalize(datum, a, zeta6) == rep
    rep = normalize(datum)
    bare = replace(rep, characters=None)
    assert compute_profile(datum, bare).to_json() == compute_profile(datum, rep).to_json()


def negate_pair(S, i, j):
    rows = [list(row) for row in S]
    rows[i][j], rows[j][i] = -rows[i][j], -rows[j][i]
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize(
    "perturb, witness",
    [
        (lambda S: negate_pair(S, 1, 2), "s^4 != Id"),
        (lambda S: mat.entrywise(S, lambda v: v.galois(2)), "(st)^3 != s^2"),
    ],
    ids=["negated-entry", "sigma_2(S)"],
)
def test_perturbed_data_fail_like_the_oracle(perturb, witness):
    base = pointed_zn(5)
    datum = replace(base, S=perturb(base.S))
    zeta6 = _anomaly_sixth_root(datum)
    for build in (lambda: all_lifts(datum), lambda: normalize(datum)):
        with pytest.raises(NotModularRepresentation) as exc:
            build()
        assert str(exc.value) == witness
    for a in range(12):
        with pytest.raises(NotModularRepresentation) as new:
            normalize(datum, a, zeta6)
        with pytest.raises(NotModularRepresentation) as old:
            oracle_lift(datum, zeta(12, a))
        assert str(new.value) == str(old.value) == witness


def test_vanishing_dimension_leaves_characters_unset():
    # S = Id with theta = (1, zeta_3): every lift is a representation, but the
    # characters s_i1 / s_01 are undefined
    datum = ModularDatum(2, 3, (0, 1), ((ONE, ZERO), (ZERO, ONE)))
    for a, rep in enumerate(all_lifts(datum)):
        assert rep.characters is None
        assert_same_rep(rep, oracle_lift(datum, zeta(12, a)))
        with pytest.raises(NotGaloisStable, match="vanishing first-row entry"):
            galois_twist_symmetry(rep)


def test_zeta6_off_the_unit_circle_is_refused():
    # dims zeta_8^-1 * (64/65, -1/65) with theta = (1, i, -i) give
    # p+ = 128/65 and p- = 2/65, so the anomaly 64 has the sixth root 2
    d1 = zeta(8, -1) * Fraction(64, 65)
    d2 = zeta(8, -1) * Fraction(-1, 65)
    S = ((ONE, d1, d2), (d1, ONE, ZERO), (d2, ZERO, ONE))
    datum = ModularDatum(3, 4, (0, 1, 3), S)
    assert derived_scalars(datum).anomaly == 64
    with pytest.raises(NotModularRepresentation, match="zeta6 is not a root of unity"):
        normalize(datum, 0, Cyclotomic.from_rational(2))
