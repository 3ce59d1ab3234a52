"""The Galois profile of a datum read from residues
(modular_data._residue_perms) against the exact per-unit loop
(_oracles.oracle_profile), and the Gal(F_T/F_S) witness of condition (vi)
read off the same h_sigma against _fixer_of_order_above_2.  The lift path
reads the same map: every rep, lift or built by hand, reads _SFacts.h_sigma
of its S, and galois_twist_symmetry, sign_function and compute_profile(datum,
rep) are compared with the exact oracles, with the residue read and with it
patched to fail; each unit mod the conductor extends to the field of the
rep (_extend_unit).  An S that is not Galois stable holds the error its
match raised, once per S."""

import random
from math import gcd

import pytest

from _oracles import oracle_profile, scale
from moddata import _matrix as mat
from moddata import galois, modular_data
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    _embedding,
    _galois_embedding,
    _residue,
    get_order_cap,
    set_order_cap,
    sqrt_int,
    units_mod,
    zeta,
)
from moddata.galois import (
    NotGaloisSymmetric,
    _extend_unit,
    _rep_field_modulus,
    compute_profile,
    galois_twist_symmetry,
    sign_function,
)
from moddata.field_theory import _fixer_of_order_above_2
from moddata.modular_data import (
    ModularDatum,
    NotGaloisStable,
    _characters,
    _galois_field_structure,
    _match_permutation,
    _s_facts,
    check_admissible,
    load,
    replace,
)
from moddata.sl2z_reps import ModularRep, all_lifts, normalize
from test_galois_orbits import oracle_twist_symmetry
from test_lift_algebra import BUILDERS, datum_of

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
    monkeypatch.setattr(mat, "_first_nonzero", lambda terms, entries: 0)
    for datum in [*golden, su2_odd_mod2(14)]:
        assert outcome(compute_profile, datum) == outcome(oracle_profile, datum)


def test_no_canonical_character_value_on_the_data_files(golden, monkeypatch):
    calls = []
    inverse, match = Cyclotomic.inverse, modular_data._match_permutation
    monkeypatch.setattr(Cyclotomic, "inverse", lambda x: calls.append("inverse") or inverse(x))
    monkeypatch.setattr(modular_data, "_match_permutation", lambda cols, k: calls.append(k) or match(cols, k))
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
            witness = _galois_field_structure(datum_m)
            if N % cond:
                assert witness.startswith("F_S has conductor")
                continue
            squares += sum(k * k % N != 1 % N for k in units_mod(N))
            k = _fixer_of_order_above_2(N, [v for row in datum_m.S for v in row])
            assert witness == ("" if k is None else f"Gal(F_T/F_S) has sigma_{k} of order > 2")
            witnesses.append(witness)
    assert squares and "" in witnesses and len(set(witnesses)) > 1


def test_residue_of_a_galois_image_is_a_permuted_powers_table():
    """_residue(sigma_k(x)) at zeta -> g is _residue(x) at zeta -> g^k, the
    identity the residue profile rests on, and _galois_embedding builds
    that permuted table."""
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
        assert _galois_embedding((ell, powers), k) == permuted
        # conjugation, as the conjugate embedding was built before
        assert _galois_embedding((ell, powers), -1) == (ell, powers[:1] + powers[:0:-1])

    check()


# ---------------------------------------------------------------------------
# the lift path


DATA_NAMES = [name for name in BUILDERS if name.endswith(".json")]
LADDER = {"su2_odd_mod2(14)": lambda: su2_odd_mod2(14), "pointed_zn(31)": lambda: pointed_zn(31)}
KINDS = ("vanishing first-row entry", "duplicate character columns", "sends character")


@pytest.fixture(params=["residues", "no-residues"])
def residues(request, monkeypatch):
    """True, or False with _residue_perms patched to fail everywhere."""
    if request.param == "no-residues":
        monkeypatch.setattr(modular_data, "_residue_perms", lambda facts, units: None)
    return request.param == "residues"


@pytest.fixture
def exact_calls(monkeypatch):
    """The units of each call of the exact loop modular_data._exact_perms."""
    calls, real = [], modular_data._exact_perms
    monkeypatch.setattr(modular_data, "_exact_perms", lambda cols, units: calls.append(units) or real(cols, units))
    return calls


def result(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def oracle_sign_function(rep, k):
    """eps with sigma_k(s_i.) = eps_i s_h(i). row by row and sigma_k(s_ij) =
    eps_j s_ih(j) for all i, j, h = h_sigma_k matched exactly at k."""
    s, r = rep.s, rep.rank
    perm = _match_permutation(_characters(s), k)
    image = [[v.galois(k) for v in row] for row in s]
    eps = []
    for i, row in enumerate(image):
        target = list(s[perm[i]])
        if row != target and row != [-v for v in target]:
            raise NotGaloisSymmetric(i)
        eps.append(1 if row == target else -1)
    if any(image[i][j] != eps[j] * s[i][perm[j]] for i in range(r) for j in range(r)):
        raise NotGaloisSymmetric("columns")
    return tuple(eps)


def test_extend_unit_lifts_every_unit_to_every_multiple_of_its_modulus():
    """For all cond | M <= 60 and every unit k mod cond, _extend_unit gives a
    unit mod M congruent to k mod cond."""
    for M in range(1, 61):
        for cond in (c for c in range(1, M + 1) if M % c == 0):
            for k in units_mod(cond):
                k_ext = _extend_unit(k, cond, M)
                assert 0 < k_ext <= M and gcd(k_ext, M) == 1 and (k_ext - k) % cond == 0, (k, cond, M)


def profile_with_signs(datum, rep):
    profile = compute_profile(datum, rep)
    return profile.units, profile.perms, profile.orbits, profile.signs


def oracle_profile_with_signs(datum, rep):
    """oracle_profile, and the signs by oracle_sign_function at each unit
    extended to the field of the rep as compute_profile extends it."""
    units, perms, orbits = oracle_profile(datum)
    cond, modulus = datum.s_field_conductor, _rep_field_modulus(rep)
    signs = {k: oracle_sign_function(rep, _extend_unit(k, cond, modulus)) for k in units}
    return units, perms, orbits, signs


def assert_lift_path_matches(rep, matched, ks):
    assert result(galois_twist_symmetry, rep) == result(oracle_twist_symmetry, rep, matched)
    for k in ks:
        assert result(sign_function, rep, k) == result(oracle_sign_function, rep, k)


@pytest.mark.parametrize("name", DATA_NAMES + list(LADDER))
def test_lift_path_matches_the_exact_oracles(name, residues, exact_calls):
    """Every lift reads the map of oracle_profile from the _SFacts of its S,
    read from residues or, with that read patched to fail, matched exactly,
    and has the oracle's twist verdict.  On the ladder the oracle forms r^2
    character values in the field of each lift's s, so it runs on every
    lift with the residue read and on the lift of least level with it
    patched.  Signs, r^2 Galois images each in the oracle, are compared on
    every lift of a data file and on that least lift of the ladder, and
    compute_profile(datum, rep), which signs every unit, on the data files
    and su2_odd_mod2(14), not on pointed_zn(31), whose oracle forms
    30 * 31^2 images.  The exact loop runs once, in _SFacts.h_sigma,
    exactly when the read is patched to fail: a read kept from an earlier
    datum over the same S would skip the patch."""
    datum = LADDER[name]() if name in LADDER else datum_of(name)
    reps = all_lifts(datum)
    units, perms, _ = oracle_profile(datum)
    least = min(reps, key=lambda rep: rep.level)
    matched = {}
    for rep in reps:
        assert _s_facts(rep.S).h_sigma == (datum.s_field_conductor, perms)
        if name not in LADDER or rep is least:
            assert_lift_path_matches(rep, matched, units_mod(rep.level)[1:3])
        elif residues:
            assert_lift_path_matches(rep, matched, ())
    if name != "pointed_zn(31)":
        assert profile_with_signs(datum, least) == oracle_profile_with_signs(datum, least)
    assert exact_calls == ([] if residues else [units_mod(datum.s_field_conductor)])


@pytest.mark.parametrize("name", list(BUILDERS))
def test_least_lift_signs_match_the_oracle_at_every_k(name):
    """sign_function on the lift of least level at every k in 1..the
    modulus of its field, units and non-units alike: a k that shares a
    prime with the order of an entry raises as the oracle does."""
    rep = min(all_lifts(datum_of(name)), key=lambda rep: rep.level)
    for k in range(1, _rep_field_modulus(rep) + 1):
        assert result(sign_function, rep, k) == result(oracle_sign_function, rep, k), k


@pytest.fixture
def galois_images(monkeypatch):
    """The unit of each Cyclotomic.galois call."""
    calls, real = [], Cyclotomic.galois
    monkeypatch.setattr(Cyclotomic, "galois", lambda x, k: calls.append(k) or real(x, k))
    return calls


def test_signs_take_the_images_of_row_0(galois_images):
    """sign_function forms r Galois images per call on a lift, those of row
    0, and none to check the row form."""
    datum = su2_odd_mod2(5)
    compute_profile(datum)  # h_sigma read before counting
    for rep in all_lifts(datum):
        for k in units_mod(_rep_field_modulus(rep)):
            galois_images.clear()
            sign_function(rep, k)
            assert galois_images == [k] * rep.rank


@pytest.mark.parametrize("name, images", [("su2_odd_mod2(14)", 392), ("pointed_zn(31)", 930)])
def test_the_profile_with_signs_takes_r_images_per_unit(name, images, galois_images):
    datum = LADDER[name]()
    rep = normalize(datum)
    compute_profile(datum)  # h_sigma read before counting
    galois_images.clear()
    profile = compute_profile(datum, rep)
    assert len(galois_images) == images == rep.rank * len(profile.units)


SQRT2 = sqrt_int(2)
# Reps built by hand, with the signs or the error at each unit.  Row 0 of
# the first reads eps = (1, 1) under sigma_3 and sigma_5, which swap its
# columns, but s_01 != s_10, so the row form fails.  The second has a zero
# row and rational columns: h = id and eps = 1.  The third, s = (zeta_8),
# fails the column form: sigma_3 and sigma_7 send s_00 to no +-s_00.
HAND_BUILT = {
    "sqrt2": (
        ModularRep(2, ((ONE, ONE), (SQRT2, -SQRT2)), 8, (0, 1), "even"),
        {
            1: (1, 1),
            3: (NotGaloisSymmetric, "sign vector inconsistent at (0,0) for sigma_3"),
            5: (NotGaloisSymmetric, "sign vector inconsistent at (0,0) for sigma_5"),
            7: (1, 1),
        },
    ),
    "zero-row": (
        ModularRep(3, ((ONE, ONE, ONE), (ONE, -ONE, ONE + ONE), (ZERO, ZERO, ZERO)), 1, (0, 0, 0), "even"),
        {1: (1, 1, 1)},
    ),
    "zeta8": (
        ModularRep(1, ((zeta(8),),), 1, (0,), "even"),
        {
            1: (1,),
            3: (NotGaloisSymmetric, "sigma_3(s[0]) is not +-row 0"),
            5: (-1,),
            7: (NotGaloisSymmetric, "sigma_7(s[0]) is not +-row 0"),
        },
    ),
}


def signs_or_error(rep, k):
    """sign_function(rep, k), or (type, message) of what it raises."""
    try:
        return sign_function(rep, k)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_a_hand_built_rep_checks_the_row_form(name, residues):
    """An S that is not symmetric can fail the row form where row 0 gives
    signs; sign_function then raises as the oracle, which checks both forms
    on every entry, does at every k in 1..the modulus."""
    rep, expected = HAND_BUILT[name]
    assert {k: signs_or_error(rep, k) for k in expected} == expected
    for k in range(1, _rep_field_modulus(rep) + 1):
        assert result(sign_function, rep, k) == result(oracle_sign_function, rep, k), k


def hand_built(rep, S):
    """rep with s = s_00 S, built by hand: it reads _SFacts.h_sigma of S,
    as a lift over S does."""
    return replace(rep, S=scale(S, rep.s[0][0]), lam=ONE)


def message(f, *args):
    """The message of the NotGaloisStable that f(*args) raises, else ""."""
    try:
        f(*args)
    except NotGaloisStable as exc:
        return str(exc)
    except ValueError:
        pass
    return ""


def test_mutated_lifts_fail_like_the_exact_oracles(golden, residues):
    rng, seen = random.Random(28), set()
    for datum in golden:
        rep = min(all_lifts(datum), key=lambda rep: rep.level)
        for mutate in (vanishing, duplicate, scaled):
            for _ in range(2):
                bent = mutate(datum, rng)
                hand = hand_built(rep, bent.S)
                assert_lift_path_matches(hand, {}, units_mod(hand.level)[:3])
                assert result(profile_with_signs, bent, hand) == result(oracle_profile_with_signs, bent, hand)
                for f, *args in ((galois_twist_symmetry, hand), (compute_profile, bent, hand)):
                    seen |= {kind for kind in KINDS if kind in message(f, *args)}
    assert seen == set(KINDS)  # each NotGaloisStable message is reached


@pytest.mark.parametrize("name", ["su2_odd_mod2(5)", "pointed_zn(7)", "su2_4_family_3.json"])
def test_a_hand_built_copy_of_a_lift_reads_its_map(name, monkeypatch):
    """replace(rep, S=scale(S, s_00), lam=ONE) is the lift built by hand from
    s: an S equal to the lift's but not the same object.  It has the lift's
    twist verdict and signs, read from the one _SFacts.h_sigma of S, and
    matches no character column."""
    datum = datum_of(name)
    reps = all_lifts(datum)
    ks = [units_mod(rep.level)[:3] for rep in reps]
    expected = [
        (result(galois_twist_symmetry, rep), [result(sign_function, rep, k) for k in units])
        for rep, units in zip(reps, ks)
    ]
    matches, match = [], modular_data._match_permutation
    monkeypatch.setattr(modular_data, "_match_permutation", lambda cols, k: matches.append(k) or match(cols, k))
    for rep, units, (twist, signs) in zip(reps, ks, expected):
        hand = replace(rep, S=scale(rep.S, rep.s[0][0]), lam=ONE)
        assert hand.S == rep.S and hand.S is not rep.S
        assert result(galois_twist_symmetry, hand) == twist
        assert [result(sign_function, hand, k) for k in units] == signs
    assert matches == []
    assert all(twist.ok for twist, _ in expected)


def test_each_reader_looks_up_the_s_facts_once_per_call(monkeypatch):
    """galois_twist_symmetry and sign_function look up _s_facts once per call,
    not once per unit: the lookup hashes all r^2 entries of S."""
    datum = su2_odd_mod2(5)
    rep = all_lifts(datum)[1]
    lookups, real = [], galois._s_facts
    monkeypatch.setattr(galois, "_s_facts", lambda S: lookups.append(S) or real(S))
    assert galois_twist_symmetry(rep).ok
    assert lookups == [rep.S]
    for k in units_mod(_rep_field_modulus(rep))[:4]:
        lookups.clear()
        sign_function(rep, k)
        assert lookups == [rep.S]


UNSTABLE = pytest.mark.parametrize(
    "S, torder",
    [
        (((ONE, sqrt_int(3)), (sqrt_int(3), -ONE)), 2),
        (((ONE, ZERO), (ZERO, ONE)), 3),
    ],
    ids=["sqrt3", "zero-S_01"],
)


@UNSTABLE
def test_lifts_of_unstable_characters_store_no_map(S, torder, residues):
    # S^2 = D^2 Id and (ST)^3 = p+ S^2 hold with theta = (1, zeta_torder), so
    # the 12 lifts exist.  sigma_5 (sqrt 3 -> -sqrt 3) sends character 0 to
    # no column; with S_01 = 0 the characters are undefined.  _SFacts.h_sigma
    # holds that error, with the residue read or without it, every lift reads
    # it, and the readers raise as the exact oracles do
    datum = ModularDatum(2, torder, (0, 1), S)
    reps = all_lifts(datum)
    held = _s_facts(S).h_sigma
    assert isinstance(held, NotGaloisStable)
    assert all(_s_facts(rep.S).h_sigma is held for rep in reps)
    twists = [result(galois_twist_symmetry, rep) for rep in reps]
    assert twists == [result(oracle_twist_symmetry, rep, {}) for rep in reps]
    assert NotGaloisStable in twists
    for rep in reps:
        assert_lift_path_matches(rep, {}, units_mod(rep.level))
        assert result(profile_with_signs, datum, rep) == result(oracle_profile_with_signs, datum, rep)


# condition (vi) of ModularDatum(2, torder, (0, 1), S) and of the same S at
# torder 12, whose F_S lies in Q_12
UNSTABLE_WITNESSES = {
    "sqrt3": ["F_S has conductor 12, not inside Q_2", "sigma_5 sends character 0 to no column"],
    "zero-S_01": ["vanishing first-row entry: characters undefined"] * 2,
}


def raised(f, *args):
    """(type, message) of the exception f(*args) raises."""
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


@UNSTABLE
def test_an_unstable_s_holds_the_error_its_match_raised(request, S, torder, monkeypatch):
    """compute_profile raises the held NotGaloisStable again, alike on every
    call and for every datum over the S; the exact match runs once per S
    (at S_01 = 0 it stops in _characters); condition (vi) names the same
    fault; and a change of the order cap forgets the held error."""
    matches, real = [], modular_data._characters
    monkeypatch.setattr(modular_data, "_characters", lambda S: matches.append(S) or real(S))
    data = [ModularDatum(2, torder, (0, 1), S), ModularDatum(2, 12, (0, 1), S)]
    expected = UNSTABLE_WITNESSES[request.node.callspec.id]
    assert [check_admissible(datum).conditions[5].witness for datum in data] == expected
    held = _s_facts(S).h_sigma
    assert isinstance(held, NotGaloisStable) and str(held) == expected[1]
    assert [raised(compute_profile, datum) for datum in data * 2] == [(NotGaloisStable, str(held))] * 4
    assert matches == [S]
    cap = get_order_cap()
    try:
        set_order_cap(cap + 1)
        assert _s_facts(S).h_sigma is not held
        assert [raised(compute_profile, datum) for datum in data] == [(NotGaloisStable, str(held))] * 2
        assert matches == [S, S]
    finally:
        set_order_cap(cap)
