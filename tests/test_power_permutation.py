"""`_matrix._power_permutation`, the one test of a^k = cP for a permutation
matrix P, decided from residues: the charge conjugation it reads off
S^2 = D^2 C, which is the dual that the fusion rules read off N_ij^0 with no
check, the S^4 fallback of the lift builder, a forced certificate failure,
and a property test of it, of `_st_cubed_is` and of `verify_relations`
against the matmul oracles."""

from math import isqrt
from pathlib import Path

import pytest

from moddata import _matrix as mat
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, _embedding, zeta
from moddata.modular_data import (
    FusionComputationError,
    ModularDatum,
    _SFacts,
    _s_facts,
    derived_scalars,
    load,
    verlinde_fusion,
)
from moddata.sl2z_reps import (
    NotModularRepresentation,
    _anomaly_sixth_root,
    _lifts,
    all_lifts,
    verify_relations,
)
from _oracles import dense_st_cubed_is, matmul_power_permutation
from test_gauss_scalars import D2_ZERO
from test_lift_algebra import oracle_lift

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN_REPORT_DATA = Path(__file__).resolve().parent / "golden_reports" / "data"

# the data/ files, the failing report data and the families' members that
# the tests build elsewhere
DATA = {
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
    **{f"golden_reports/{f.name}": (lambda f=f: load(f)) for f in sorted(GOLDEN_REPORT_DATA.glob("*.json"))},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (1, 3, 5, 7, 9, 11, 31)},
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (1, 2, 3, 5, 6, 14)},
    "d2_zero": lambda: D2_ZERO,
}

# S has a zero first-row entry, is not projectively unitary, or gives a
# coefficient that is no nonnegative integer
NO_FUSION_RULES = {
    "golden_reports/pointed_z5_S01_x0.json",
    "golden_reports/pointed_z5_S01_xzeta5.json",
    "golden_reports/pointed_z5_S12_x2.json",
    "golden_reports/rank2_all_ones.json",
    "golden_reports/rank2_d1_i.json",
    "golden_reports/rank2_non_integral.json",
    "golden_reports/su2_9_mod2_S12_xm1.json",
    "golden_reports/su2_9_mod2_S23_x3.json",
    "d2_zero",
}


def rat(v):
    return Cyclotomic.from_rational(v)


@pytest.mark.parametrize("name", list(DATA))
def test_square_of_s_reads_the_charge_conjugation(name):
    """Where the fusion rules compute, the argument of _fusion_rules holds:
    every d_a is real, N^0 is the matrix of an involution fixing 0, a
    symmetric permutation, and that permutation is the C of S^2 = D^2 C
    and h_sigma at complex conjugation."""
    datum = DATA[name]()
    if name in NO_FUSION_RULES:
        with pytest.raises(FusionComputationError):
            verlinde_fusion(datum)
        return
    fusion, facts, r = verlinde_fusion(datum), _s_facts(datum.S), datum.rank
    dual = fusion.dual
    assert all(d == d.conjugate() for d in datum.S[0])
    n0 = [[fusion.n(i, j, 0) for j in range(r)] for i in range(r)]
    assert n0 == [[int(j == dual[i]) for j in range(r)] for i in range(r)]
    assert dual[0] == 0 and all(dual[dual[i]] == i for i in range(r))
    d2 = derived_scalars(datum).global_dim_sq
    assert mat._power_permutation(facts, 2, d2) == dual
    c, perms = facts.h_sigma
    assert perms[(-1) % c if c > 1 else 1] == dual


def rotated_s():
    """S = M / M_00 for M = Q diag(1, i) Q^t, Q the rotation with cos 3/5 and
    sin 4/5: S is symmetric with S_00 = 1, S^2 is a multiple of the
    reflection Q diag(1, -1) Q^t, no multiple of a permutation, and
    S^4 = M_00^-4 Id."""
    a, b, i = rat(3) / 5, rat(4) / 5, zeta(4)
    m00, m01, m11 = a * a + i * b * b, a * b * (i - 1), b * b + i * a * a
    inv = m00.inverse()
    return ((ONE, m01 * inv), (m01 * inv, m11 * inv)), inv**4


def spy_on_powers(monkeypatch):
    """Record (k, c, result) of every _power_permutation call."""
    calls, real = [], mat._power_permutation

    def spy(facts, k, c):
        calls.append((k, c, real(facts, k, c)))
        return calls[-1][2]

    monkeypatch.setattr(mat, "_power_permutation", spy)
    return calls


def test_s4_fallback_of_the_lift_builder(monkeypatch):
    S, c4 = rotated_s()
    facts = _SFacts(S)
    assert mat._power_permutation(facts, 2, rat(1) + S[0][1] ** 2) is None
    assert matmul_power_permutation(S, 4, c4) == mat._power_permutation(facts, 4, c4) == (0, 1)
    # theta = 1 makes p+ = p- and the anomaly 1, so the dense reference runs
    datum = ModularDatum(2, 1, (0, 0), S)
    root = _anomaly_sixth_root(datum)
    calls = spy_on_powers(monkeypatch)
    for a in range(12):
        with pytest.raises(NotModularRepresentation) as new:
            _lifts(datum, root, (a,))
        with pytest.raises(NotModularRepresentation) as old:
            oracle_lift(datum, a)
        assert str(new.value) == str(old.value) == "s^4 != Id"
    # S^2 is no multiple of a permutation, and S^4 = c4 Id is certified
    assert calls[:2] == [(2, derived_scalars(datum).global_dim_sq, None), (4, c4, (0, 1))]


@pytest.mark.parametrize("name", ["pointed_zn(5)", "pointed_zn(7)", "pointed_z5.json"])
def test_a_failed_certificate_gives_none_and_the_same_lifts(monkeypatch, name):
    datum = DATA[name]()
    expected = all_lifts(datum)
    d2 = derived_scalars(datum).global_dim_sq
    real = mat._first_nonzero
    with monkeypatch.context() as patch:
        patch.setattr(mat, "_first_nonzero", lambda terms, entries: 0)
        assert mat._power_permutation(_SFacts(datum.S), 2, d2) is None
    # only the S^2 = D^2 C certificate fails: the S^4 fallback decides
    failed = []

    def fail_once(terms, entries):
        if not failed:
            failed.append(None)
            return 0
        return real(terms, entries)

    monkeypatch.setattr(mat, "_first_nonzero", fail_once)
    calls = spy_on_powers(monkeypatch)
    root = _anomaly_sixth_root(datum)
    _s_facts.cache_clear()  # all_lifts kept S^2 and S^4 in the record of S
    lifts = _lifts(datum, root, range(12))
    assert calls[:2] == [(2, d2, None), (4, d2 * d2, tuple(range(datum.rank)))]
    # C != Id, so no lift has even or odd parity to lose
    assert verlinde_fusion(datum).dual != tuple(range(datum.rank))
    assert lifts == tuple(expected)


def matrix(*rows):
    return tuple(tuple(rat(v) for v in row) for row in rows)


CYCLE = matrix((0, 1, 0), (0, 0, 1), (1, 0, 0))

# (a, k, c): a^k = cP for no permutation P, or for the one the oracle reads
FIXED = [
    (matrix((1, 0), (1, 0)), 2, rat(1)),  # a^2 = a: two rows share a column
    (matrix((0, 1), (0, 0)), 2, rat(1)),  # a^2 = 0
    (matrix((0, 1), (1, 0)), 2, rat(1)),
    (matrix((0, 2), (3, 0)), 2, rat(6)),
    (matrix((0, 2), (3, 0)), 4, rat(36)),
    (CYCLE, 2, rat(1)),
    (CYCLE, 4, rat(1)),
    (matrix((0, 1, 0), (0, 0, 1), (-1, 0, 0)), 4, rat(-1)),
]


@pytest.mark.parametrize("a, k, c", FIXED)
def test_fixed_small_matrices(a, k, c):
    assert mat._power_permutation(_SFacts(a), k, c) == matmul_power_permutation(a, k, c)


@pytest.mark.parametrize("k", [2, 4])
def test_a_power_off_by_the_first_prime_is_caught_by_the_bound(k):
    """x^k - c = ell, the first prime at order 1, has residue 0 there: only a
    bound that counts the r^(k-1) h^k of a^k (for x near ell^(1/k)) and the
    size of c (for x = 2) asks for a second prime."""
    ell = _embedding(1, 0)[0]
    for x in (2, isqrt(isqrt(ell)) + 1 if k == 4 else isqrt(ell) + 1):
        c = rat(x**k - ell)
        a = ((rat(x),),)
        assert mat._power_permutation(_SFacts(a), k, c) is None
        assert mat._power_permutation(_SFacts(a), k, c + ell) == (0,)


def dense_witness(s, t):
    """verify_relations' witness from mat_pow: s^4 = Id, then (st)^3 = s^2."""
    if mat.mat_pow(s, 4) != mat.eye(len(s)):
        return "s^4 != Id"
    return None if dense_st_cubed_is(s, t, ONE) else "(st)^3 != s^2"


SMALL_S = [
    CYCLE,
    matrix((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)),
    matrix((0, 1), (1, 0)),
    matrix((0, 1), (-1, 0)),
    matrix((1, 1), (0, -1)),
]


@pytest.mark.parametrize("s", SMALL_S)
def test_verify_relations_on_small_matrices(s):
    """1 + a 3-cycle has s^2 = P with P_00 = 1 and P^2 != Id, so s^4 != Id;
    the others have s^2 = +-P for an involution P, or s^2 no multiple of one."""
    for t in [(ONE,) * len(s), tuple(zeta(3, j) for j in range(len(s)))]:
        assert verify_relations(s, t).witness == dense_witness(s, t)


def test_power_permutation_and_st_cubed_agree_with_matmul_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    entry = st.sampled_from([ZERO, ZERO, ONE, -ONE, rat(2), zeta(3), zeta(4), zeta(8, 3)])
    root = st.sampled_from([ONE, -ONE, zeta(3), zeta(4), zeta(5, 2), zeta(12, 7)])

    @st.composite
    def case(draw):
        r = draw(st.integers(1, 3))
        if draw(st.booleans()):  # one entry per row and column: a^k is a multiple of a permutation or singular
            perm = draw(st.permutations(range(r)))
            a = tuple(tuple(draw(entry) if j == perm[i] else ZERO for j in range(r)) for i in range(r))
        else:  # any matrix: non-symmetric, singular and nilpotent ones among them
            a = tuple(tuple(draw(entry) for _ in range(r)) for _ in range(r))
        k = draw(st.sampled_from([2, 4]))
        nonzero = [v for row in mat.mat_pow(a, k) for v in row if v]
        c = nonzero[0] if nonzero and draw(st.booleans()) else draw(entry)
        return a, k, c, tuple(draw(root) for _ in range(r)), draw(entry)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(case())
    def check(args):
        a, k, c, t, c_st = args
        facts = _SFacts(a)
        assert mat._power_permutation(facts, k, c) == matmul_power_permutation(a, k, c)
        assert mat._st_cubed_is(facts, t, c_st) == dense_st_cubed_is(a, t, c_st)
        assert verify_relations(a, t).witness == dense_witness(a, t)

    check()
