"""What depends on S alone is computed once per S in a process
(modular_data._s_facts) and shared by every datum over that S: the Verlinde
fusion rules or their failure, projective unitarity, D^2, D^-2, the primes
of Norm(D^2), S^2 and S^4, h_sigma or the error its match raised, and the
residue tables of S that every identity over S reads, which no reader
changes.  Sharing changes no report and no exception; the analysis runs
once per distinct S; (ST)^3 = p+ S^2 is decided once per datum; a change of
the order cap forgets every cached result; and the certificates over S
(h_sigma, Verlinde, unitarity, S^2) size a root of unity as 1."""

import json
import random
from fractions import Fraction
from itertools import count

import pytest

from moddata import _matrix as mat
from moddata import modular_data
from moddata.catalog import pointed_zn, rank5_catalog, su2_odd_mod2
from moddata.classifier import rank5_suite
from moddata.cyclotomic import (
    ONE,
    Cyclotomic,
    InvalidOrderError,
    _embedding,
    _residue,
    get_order_cap,
    set_order_cap,
    units_mod,
)
from moddata.galois import compute_profile
from moddata.modular_data import (
    FusionComputationError,
    ModularDatum,
    NotGaloisStable,
    _SFacts,
    _modular_tensor,
    _projectively_unitary,
    _s_facts,
    check_admissible,
    check_twist_equation,
    derived_scalars,
    load,
    verlinde_fusion,
)
from moddata.sl2z_reps import all_lifts, inadmissible_psi, normalize
from test_modular_data import OFF_UNITARITY, perturb_twist

SEED = 29


def clear_all():
    for cache in (_s_facts, derived_scalars, verlinde_fusion, normalize):
        cache.cache_clear()


def report(datum):
    """The check report as `moddata check` prints it, text and --json, and
    the Galois profile as `moddata galois --json` prints it, or the message
    of the NotGaloisStable that compute_profile raises."""
    got = check_admissible(datum)
    try:
        profile = json.dumps(compute_profile(datum).to_json())
    except NotGaloisStable as exc:
        profile = str(exc)
    return got.format_table(), json.dumps(got.to_json(), indent=1), profile


def retwisted(datum, rng):
    """datum with one twist changed at random, over the same S; a datum of
    torder 1 is first written at torder 2."""
    if datum.torder == 1:
        datum = ModularDatum(datum.rank, 2, datum.t_exponents, datum.S)
    return perturb_twist(datum, rng.randrange(1, datum.rank), rng.randrange(1, datum.torder))


def data_over_shared_s(data_dir):
    """Every data file and failing S of test_modular_data, each with two
    seeded changes of T over the same S, in a seeded shuffled order."""
    rng = random.Random(SEED)
    base = [load(path) for path in sorted(data_dir.glob("*.json"))]
    base += [build() for build, _ in OFF_UNITARITY]
    data = [twisted for datum in base for twisted in (datum, retwisted(datum, rng), retwisted(datum, rng))]
    rng.shuffle(data)
    return data


def test_sharing_changes_no_report(data_dir):
    data = data_over_shared_s(data_dir)
    clear_all()
    shared = [report(datum) for datum in data]
    fresh = []
    for datum in data:
        clear_all()
        fresh.append(report(datum))
    assert shared == fresh
    # the shared run reused records: far fewer S than data, failing S among them
    assert len({datum.S for datum in data}) <= len(data) // 3
    assert {table.endswith("overall: admissible") for table, _, _ in shared} == {True, False}


def fusion_error(datum):
    with pytest.raises(FusionComputationError) as info:
        verlinde_fusion(datum)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "witness", None)


FAILING = [build for build, expected in OFF_UNITARITY if not expected[2][0]]


@pytest.mark.parametrize("build", FAILING, ids=range(len(FAILING)))
def test_a_failing_s_raises_alike_for_each_datum_over_it(build):
    first = build()
    second = retwisted(first, random.Random(SEED))
    assert second.S == first.S and second != first
    raised = [fusion_error(datum) for datum in (first, second, first)]
    clear_all()
    assert raised == [fusion_error(second)] * 3


def test_a_non_integral_tensor_keeps_its_witness():
    build = FAILING[-1]  # rank2_non_integral, N[1,1]^1 = 3/2
    datum = build()
    first = fusion_error(datum)
    assert first[0] is modular_data.NotFusionIntegral and first[2][:3] == (1, 1, 1)
    assert fusion_error(retwisted(datum, random.Random(SEED))) == first


def counting(monkeypatch, module, name):
    """Patch module.name to record, on each call, the S it runs over: that
    of its first argument, an _SFacts."""
    calls, real = [], getattr(module, name)

    def spy(facts, *args):
        calls.append(facts.S)
        return real(facts, *args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_check_analyses_each_distinct_s_once(monkeypatch, data_dir):
    """The 16 su2_4_family files hold 4 distinct S, each with 4 T."""
    tensors = counting(monkeypatch, modular_data, "_modular_tensor")
    reads = counting(monkeypatch, modular_data, "_residue_perms")
    clear_all()
    data = [load(path) for path in sorted(data_dir.glob("su2_4_family_*.json"))]
    assert all(check_admissible(datum).passed for datum in data)
    distinct = list(dict.fromkeys(datum.S for datum in data))
    assert len(data) == 16 and len(distinct) == 4
    assert tensors == distinct and reads == distinct


@pytest.fixture
def residue_work(monkeypatch):
    """(calls, formed, reads): the number of _residue calls, in modular_data
    and _matrix; each table of S that _SFacts.residues forms, as (S, n, ell,
    k); and the number of tables it hands out."""
    calls, formed, reads = [0], [], [0]
    real, residues = modular_data._residue, _SFacts.residues

    def count(x, n, emb):
        calls[0] += 1
        return real(x, n, emb)

    def spy(self, emb, k=1):
        known = len(self._tables)
        table = residues(self, emb, k)
        if len(self._tables) > known:
            formed.append((self.S, len(emb[1]), emb[0], k))
        reads[0] += 1
        return table

    for module in (modular_data, mat):
        monkeypatch.setattr(module, "_residue", count)
    monkeypatch.setattr(_SFacts, "residues", spy)
    return calls, formed, reads


def test_a_check_pass_forms_each_residue_table_once(residue_work, data_dir):
    """check on the 18 data files maps at most 942 values through _residue.
    It took 2,441 when unitarity, the Verlinde tensor, h_sigma and balancing
    each formed the residues of S, and 1,417 while (ST)^3 mapped S itself.
    Each (n, ell, k) table is formed once per S and read again: the 16
    su2_4_family files share 4 S, so their tables at n = lcm(S, T), which
    balancing and (ST)^3 read, are shared too."""
    calls, formed, reads = residue_work
    clear_all()
    data = [load(path) for path in sorted(data_dir.glob("*.json"))]
    assert len(data) == 18 and all(check_admissible(datum).passed for datum in data)
    assert calls[0] <= 942
    assert len(set(formed)) == len(formed) and reads[0] > 2 * len(formed)
    distinct = list(dict.fromkeys(datum.S for datum in data))
    assert list(dict.fromkeys(S for S, *_ in formed)) == distinct
    family = {load(path).S for path in data_dir.glob("su2_4_family_*.json")}
    assert len(family) == 4 and sum(S in family and n == 24 for S, n, _, _ in formed) == 4


# perfbench's lift_ladder: all 12 lifts of each, and the canonical lift of pointed_zn(7)
LADDER = (su2_odd_mod2(3), pointed_zn(5), su2_odd_mod2(5))
CANONICAL = pointed_zn(7)


def run_ladder():
    return [rep for datum in LADDER for rep in all_lifts(datum)] + [normalize(CANONICAL)]


def test_no_reader_changes_a_residue_table(data_dir):
    """_power_permutation subtracts c from rows in place, and (ST)^3 reads
    the table it is handed: after check on every data file, the lifts of the
    ladder and psi at p = 5, every table that an _SFacts keeps still holds
    the residues of sigma_k(S)."""
    clear_all()
    data = [load(path) for path in sorted(data_dir.glob("*.json"))]
    assert all(check_admissible(datum).passed for datum in data)
    run_ladder()
    assert inadmissible_psi(5).inadmissible
    for S in dict.fromkeys(datum.S for datum in (*data, *LADDER, CANONICAL)):
        tables = _s_facts(S)._tables
        assert tables
        for (n, ell, k), table in tables.items():
            emb = next(emb for emb in (_embedding(n, i) for i in count()) if emb[0] == ell)
            assert table == [[_residue(v.galois(k), n, emb) for v in row] for row in S]


def test_the_lift_ladder_maps_no_entry_of_s_in_matrix(monkeypatch):
    """During the ladder's lifts _matrix maps only t and c through _residue
    (t the twists, c = p+ for (ST)^3 and c = D^2 for S^2): both identities
    read S from the tables of _s_facts(S).  When both mapped S themselves,
    _matrix made 301 _residue calls here, 266 of them on entries of S."""
    seen, real = [], mat._residue
    monkeypatch.setattr(mat, "_residue", lambda x, n, emb: seen.append(x) or real(x, n, emb))
    clear_all()
    assert len(run_ladder()) == 37
    allowed = set()
    for datum in (*LADDER, CANONICAL):
        ds = derived_scalars(datum)
        allowed |= {*ds.thetas, ds.gauss_plus, ds.global_dim_sq}
    assert set(seen) <= allowed and len(seen) == 35


def test_the_twist_residual_is_decided_once_per_datum(monkeypatch, data_dir):
    """check (condition (ii)), check_twist_equation and the canonical lift
    read one R = T(ST)^2 - p+ S; on a datum where R != 0, check and the twist
    equation read one witness."""
    residuals = counting(monkeypatch, mat, "_st_first_nonzero")
    clear_all()
    datum = load(data_dir / "su2_9_mod2.json")
    assert check_admissible(datum).passed and check_twist_equation(datum).ok
    normalize(datum)
    assert residuals == [datum.S]
    bent = perturb_twist(datum, 1, 1)
    report, twist = check_admissible(bent), check_twist_equation(bent)
    assert report.conditions[1].witness == "(ST)^3 != p+ S^2" and not twist.ok
    assert residuals == [datum.S, datum.S]


def test_a_table_above_the_conductor_holds_the_residues_of_its_entries():
    """Read at an embedding of order n = 4 c above the conductor c, the table
    of sigma_k(S) is _residue of each sigma_k(S_ij) at n, and is kept apart
    from the tables at c."""
    S = su2_odd_mod2(5).S
    facts = _s_facts(S)
    c = facts.conductor
    for n in (4 * c, c):
        for i in (0, 1):
            emb = _embedding(n, i)
            for k in (1, -1, 3):
                table = facts.residues(emb, k)
                assert table == [[_residue(v.galois(k), n, emb) for v in row] for row in S]
                assert facts.residues(emb, k) is table
    assert len(facts._tables) == 12


def test_a_table_at_a_prime_of_a_denominator_is_refused_and_not_kept():
    ell = _embedding(1, 0)[0]
    x = Cyclotomic.from_rational(Fraction(1, ell))
    facts = _SFacts(((ONE, x), (x, ONE)))
    with pytest.raises(ValueError):
        facts.residues(_embedding(1, 0))
    assert facts._tables == {}
    emb = _embedding(1, 1)
    assert facts.residues(emb) == [[1, pow(ell, -1, emb[0])], [pow(ell, -1, emb[0]), 1]]
    assert len(facts._tables) == 1


def test_classify_rank5_reads_h_sigma_once_per_distinct_s(monkeypatch):
    """check (condition (vi)) and the canonical lift read one h_sigma map."""
    reads = counting(monkeypatch, modular_data, "_residue_perms")
    squares = counting(monkeypatch, mat, "_square_and_fourth")
    clear_all()
    data = rank5_catalog()
    assert rank5_suite(data).passed
    distinct = list(dict.fromkeys(datum.S for _, datum in data))
    assert len(data) == 18 and len(distinct) == 6
    assert reads == distinct and squares == distinct


@pytest.fixture
def cap():
    """Runs the test at the default cap, and restores the cap after it."""
    saved = get_order_cap()
    yield saved
    set_order_cap(saved)


# su2_odd_mod2(5) lies in Q(zeta_11): phi(11) = 10 exceeds a cap of 4
CAPPED = r"^phi\(11\) exceeds the order cap 4$"


def test_a_cap_change_forgets_the_s_records(cap):
    datum = su2_odd_mod2(5)
    facts = _s_facts(datum.S)
    assert facts.fusion.rank == 5
    set_order_cap(4)
    assert _s_facts.cache_info().currsize == 0
    with pytest.raises(InvalidOrderError, match=CAPPED):
        _s_facts(datum.S).fusion
    set_order_cap(cap)
    assert _s_facts(datum.S) is not facts and _s_facts(datum.S).fusion == facts.fusion


def test_a_cap_change_forgets_the_fusion_rules(cap):
    datum = su2_odd_mod2(5)
    assert verlinde_fusion(datum).rank == 5
    set_order_cap(4)
    with pytest.raises(InvalidOrderError, match=CAPPED):
        verlinde_fusion(datum)


def test_a_cap_change_forgets_the_derived_scalars(cap):
    datum = su2_odd_mod2(5)
    assert derived_scalars(datum).global_dim_sq
    set_order_cap(4)
    with pytest.raises(InvalidOrderError, match=CAPPED):
        derived_scalars(datum)


def test_a_cap_change_forgets_the_canonical_lift(cap):
    datum = su2_odd_mod2(5)
    assert normalize(datum).rank == 5
    set_order_cap(4)
    with pytest.raises(InvalidOrderError, match=CAPPED):
        normalize(datum)


def test_setting_the_same_cap_keeps_the_records(cap):
    facts = _s_facts(su2_odd_mod2(5).S)
    set_order_cap(cap)
    assert _s_facts(su2_odd_mod2(5).S) is facts


@pytest.fixture
def primes(monkeypatch):
    """The primes that the _first_nonzero calls take, in call order."""
    taken, real = [], mat._first_nonzero

    def spy(terms, entries):
        def counted(m, emb):
            taken.append(emb[0])
            return entries(m, emb)

        return real(terms, counted)

    monkeypatch.setattr(mat, "_first_nonzero", spy)
    return taken


@pytest.mark.parametrize("n", [31, 41])
def test_h_sigma_certificate_takes_one_prime_on_roots_of_unity(primes, n):
    """Every S entry of pointed_zn(n) is a root of unity, so the certificate's
    bound is 2 and one prime covers 2^phi(n).  The one size rule gives a
    root of unity l1 1, where the power basis gives zeta^(n-1) = -(1 + zeta
    + ... + zeta^(n-2)) an l1 of n - 1, which took 8 primes at n = 41."""
    S = pointed_zn(n).S
    perms = modular_data._residue_perms(_s_facts(S), units_mod(n))
    assert perms is not None and len(perms) == n - 1
    assert len(primes) == 1
    assert mat._size([v for row in S for v in row]) == (1, 1)


S_CERTIFICATES = {
    "verlinde": lambda S, d2: _modular_tensor(_s_facts(S)) is not None,
    "unitarity": lambda S, d2: _projectively_unitary(_s_facts(S), d2),
    "s_squared": lambda S, d2: mat._power_permutation(_s_facts(S), 2, d2) is not None,
}


@pytest.mark.parametrize(
    "n, name, count",
    [
        (31, "verlinde", 1),
        (31, "unitarity", 3),
        (31, "s_squared", 3),
        (41, "verlinde", 1),
        (41, "unitarity", 5),
        (41, "s_squared", 5),
    ],
)
def test_s_certificates_size_roots_of_unity_as_one(primes, n, name, count):
    """The Verlinde certificate, unitarity and S^2 = D^2 C on pointed_zn(n),
    whose S entries are roots of unity and D^2 = n.  With the power-basis
    l1 of n - 1 for zeta^(n-1) they took 6, 8 and 8 primes at n = 31, and
    8, 11 and 11 at n = 41."""
    datum = pointed_zn(n)
    assert S_CERTIFICATES[name](datum.S, derived_scalars(datum).global_dim_sq)
    assert len(primes) == count
