"""The Galois profile of a datum read from residues (galois._residue_perms)
against the exact per-unit loop (_oracles.oracle_profile), and the
Gal(F_T/F_S) witness of condition (vi) read off that profile against
_fixer_of_order_above_2."""

import random

import pytest

from _oracles import oracle_profile
from moddata import _matrix as mat
from moddata import galois
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, _embedding, _residue, units_mod, zeta
from moddata.galois import NotGaloisStable, compute_profile
from moddata.field_theory import _fixer_of_order_above_2
from moddata.modular_data import _galois_field_structure, load, replace

FACTORS = (-ONE, Cyclotomic.from_rational(2), zeta(3), zeta(4), zeta(5))


def outcome(f, datum):
    """(units, perms, orbits) of the profile, or the NotGaloisStable message."""
    try:
        got = f(datum)
    except NotGaloisStable as exc:
        return str(exc)
    return got if isinstance(got, tuple) else (got.units, got.perms, got.orbits)


def with_S(datum, rows):
    return replace(datum, S=tuple(map(tuple, rows)))


def vanishing(datum, rng):
    """S_0a = S_a0 = 0 for one a > 0."""
    a = rng.randrange(1, datum.rank)
    rows = [list(row) for row in datum.S]
    rows[0][a] = rows[a][0] = ZERO
    return with_S(datum, rows)


def duplicate(datum, rng):
    """Column b a copy of column a, kept symmetric: S_ab = S_bb = S_aa."""
    a, b = rng.sample(range(1, datum.rank), 2)
    rows = [list(row) for row in datum.S]
    for i in range(datum.rank):
        if i not in (a, b):
            rows[i][b] = rows[b][i] = datum.S[i][a]
    rows[a][b] = rows[b][a] = rows[b][b] = datum.S[a][a]
    return with_S(datum, rows)


def scaled(datum, rng):
    """S_ij = S_ji times a root of unity or 2, (i, j) != (0, 0)."""
    i, j = rng.randrange(datum.rank), rng.randrange(1, datum.rank)
    rows = [list(row) for row in datum.S]
    rows[i][j] = rows[j][i] = rows[i][j] * rng.choice(FACTORS)
    return with_S(datum, rows)


@pytest.fixture(scope="module")
def golden(data_dir):
    return [load(path) for path in sorted(data_dir.glob("*.json"))]


@pytest.fixture(scope="module")
def mutated(golden):
    """Seeded S mutations of every data file, four of each kind."""
    rng = random.Random(26)
    return [
        mutate(datum, rng) for datum in golden for mutate in (vanishing, duplicate, scaled) for _ in range(4)
    ]


def test_profile_matches_the_exact_loop_on_the_data_files(golden):
    assert len(golden) == 18
    for datum in golden:
        assert outcome(compute_profile, datum) == outcome(oracle_profile, datum)


@pytest.mark.parametrize(
    "build", [lambda: pointed_zn(31), lambda: pointed_zn(41), lambda: su2_odd_mod2(14)],
    ids=["pointed_zn(31)", "pointed_zn(41)", "su2_odd_mod2(14)"],
)
def test_profile_matches_the_exact_loop_on_the_ladder(build):
    datum = build()
    assert outcome(compute_profile, datum) == outcome(oracle_profile, datum)


def test_mutations_fail_with_the_exact_loop_message(mutated):
    kinds = ("vanishing first-row entry", "duplicate character columns", "sends character")
    seen = set()
    for datum in mutated:
        got = outcome(compute_profile, datum)
        assert got == outcome(oracle_profile, datum)
        if isinstance(got, str):
            seen |= {kind for kind in kinds if kind in got}
    assert seen == set(kinds)  # each NotGaloisStable message is reached


def test_a_failing_certificate_gives_the_same_profile(golden, monkeypatch):
    monkeypatch.setattr(mat, "_first_nonzero", lambda values, bound, entries: 0)
    for datum in [*golden, su2_odd_mod2(14)]:
        assert outcome(compute_profile, datum) == outcome(oracle_profile, datum)


def test_no_canonical_character_value_on_the_data_files(golden, monkeypatch):
    calls = []
    inverse, match = Cyclotomic.inverse, galois._match_permutation
    monkeypatch.setattr(Cyclotomic, "inverse", lambda x: calls.append("inverse") or inverse(x))
    monkeypatch.setattr(galois, "_match_permutation", lambda cols, k: calls.append(k) or match(cols, k))
    for datum in golden:
        compute_profile(datum)
    assert calls == []


def test_gal_ft_fs_witness_matches_the_fixer_oracle(golden):
    """On the data files and on T mutations torder * m (m = 2, 3, 5), the
    witness of condition (vi) names _fixer_of_order_above_2's unit."""
    witnesses, squares = [], 0
    for datum in golden:
        for m in (1, 2, 3, 5):
            datum_m = replace(datum, torder=datum.torder * m)
            N, cond = datum_m.ord_t, datum_m.s_field_conductor
            witness, profile = _galois_field_structure(datum_m)
            if N % cond:
                assert profile is None and witness.startswith("F_S has conductor")
                continue
            squares += sum(k * k % N != 1 % N for k in units_mod(N))
            k = _fixer_of_order_above_2(N, [v for row in datum_m.S for v in row])
            assert witness == ("" if k is None else f"Gal(F_T/F_S) has sigma_{k} of order > 2")
            witnesses.append(witness)
    assert squares and "" in witnesses and len(set(witnesses)) > 1


def test_residue_of_a_galois_image_is_a_permuted_powers_table():
    """_residue(sigma_k(x)) at zeta -> g is _residue(x) at zeta -> g^k, the
    identity the residue profile rests on."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)

    @st.composite
    def case(draw):
        n = draw(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 20, 24, 41]))
        x = Cyclotomic(n, draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=5)))
        return n, x, draw(st.sampled_from(units_mod(n))), draw(st.integers(0, 2))

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(case())
    def check(args):
        n, x, k, i = args
        ell, powers = _embedding(n, i)
        hypothesis.assume(x._den % ell)
        permuted = (ell, tuple(powers[e * k % n] for e in range(n)))
        assert _residue(x.galois(k), n, (ell, powers)) == _residue(x, n, permuted)

    check()
