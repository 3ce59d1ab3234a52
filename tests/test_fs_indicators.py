"""Frobenius-Schur indicators against an independent term-by-term oracle,
and the failing branches of admissibility condition (v)."""

import random
from math import lcm
from pathlib import Path

import pytest

from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, sum_cyclotomics, zeta
from moddata.modular_data import (
    ModularDatum,
    Verdict,
    check_admissible,
    derived_scalars,
    fs_exponent,
    fs_indicator,
    load,
    verlinde_fusion,
)


def oracle_fs_indicator(datum, fusion, n, k):
    """nu_n(k) = D^-2 sum_ij N_ij^k d_i d_j (theta_i / theta_j)^n, one
    product and one root of unity per (i, j) term."""
    N = datum.torder
    dims = datum.dims
    exps = datum.t_exponents
    acc = sum_cyclotomics(
        fusion.n(i, j, k) * dims[i] * dims[j] * zeta(N, n * (exps[i] - exps[j]))
        for i in range(datum.rank)
        for j in range(datum.rank)
        if fusion.n(i, j, k)
    )
    return acc * derived_scalars(datum).global_dim_sq.inverse()


GOLDEN_FILES = sorted((Path(__file__).resolve().parent.parent / "data").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_fs_indicator_matches_oracle(path):
    datum = load(path)
    fusion = verlinde_fusion(datum)
    N = datum.ord_t
    oracle_exponent = None
    for n in [*range(N + 2), -1]:
        values = [oracle_fs_indicator(datum, fusion, n, k) for k in range(datum.rank)]
        for k, expected in enumerate(values):
            assert fs_indicator(datum, fusion, n, k) == expected, (n, k)
        if oracle_exponent is None and n >= 1 and list(datum.dims) == values:
            oracle_exponent = n
    assert oracle_exponent is not None
    assert fs_exponent(datum, fusion) == oracle_exponent


def with_twists(datum, shifts):
    """The datum with t_exponents[j] moved by shifts[j]; S and so the fusion
    rules stay as they are."""
    exps = [(a + shifts.get(j, 0)) % datum.torder for j, a in enumerate(datum.t_exponents)]
    return ModularDatum(datum.rank, datum.torder, tuple(exps), datum.S)


# (file, twist shifts, witness of condition (v), verdicts of (i)-(vii))
CONDITION_V_FAILURES = [
    (
        "su2_4_family_0", {1: 2},
        "nu_2(1) = 11/12 not +-1 on self-dual",
        [True, False, True, False, False, True, True],
    ),
    (
        "su2_4_family_0", {1: 1},
        "nu_2(1) = 5/6 + 1/6*z12 - 1/12*z12^3 not +-1 on self-dual",
        [True, False, True, False, False, True, True],
    ),
    (
        "su2_9_mod2", {3: 7},
        "nu_2(1) = 10/11 + 4/11*z11^3 + 1/11*z11^4 + 1/11*z11^5 + 1/11*z11^6"
        " + 1/11*z11^7 + 4/11*z11^8 not +-1 on self-dual",
        [True, False, True, False, False, True, True],
    ),
    (
        "pointed_z5", {1: 1, 4: 1},
        "nu_2(1) != 0 on non-self-dual",
        [True, False, True, False, False, True, True],
    ),
    (
        "pointed_z5", {1: 2, 4: 2},
        "nu_2(2) != 0 on non-self-dual",
        [True, False, True, False, False, True, True],
    ),
    (
        "su2_4_family_0", {1: 12},
        "nu_1(1) not in Z[zeta_24]",
        [True, False, True, False, False, True, True],
    ),
]


@pytest.mark.parametrize(
    "name, shifts, witness, verdicts",
    CONDITION_V_FAILURES,
    ids=[f"{c[0]}-{c[2].split(' ')[0]}-{i}" for i, c in enumerate(CONDITION_V_FAILURES)],
)
def test_condition_v_failure_witness(data_dir, name, shifts, witness, verdicts):
    datum = with_twists(load(data_dir / f"{name}.json"), shifts)
    report = check_admissible(datum)
    assert report.conditions[4] == Verdict(False, witness, "FS indicators")
    assert [c.ok for c in report.conditions] == verdicts


def test_non_integral_indicator_is_outside_the_ring(data_dir):
    datum = with_twists(load(data_dir / "su2_4_family_0.json"), {1: 12})
    nu = fs_indicator(datum, verlinde_fusion(datum), 1, 1)
    assert nu == oracle_fs_indicator(datum, verlinde_fusion(datum), 1, 1)
    assert not nu.is_algebraic_integer


def test_trivial_datum_indicators():
    # rank 1: N_00^0 = 1 and nu_n(0) = 1 for every n, including n = 0 and n < 0
    trivial = ModularDatum(1, 1, (0,), ((Cyclotomic.from_rational(1),),))
    fusion = verlinde_fusion(trivial)
    for n in (-3, 0, 1, 7):
        assert fs_indicator(trivial, fusion, n, 0) == Cyclotomic.from_rational(1)


@pytest.mark.parametrize("k", [-1, 5, 7])
def test_fs_indicator_rejects_label_outside_rank(data_dir, k):
    # -1 would read label 4 by negative indexing, 5 and 7 lie past the rank
    datum = load(data_dir / "su2_9_mod2.json")
    with pytest.raises(ValueError, match="label"):
        fs_indicator(datum, verlinde_fusion(datum), 2, k)


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_indicator_is_symmetric_in_n(path):
    # N_ij^k = N_ji^k, so nu_n(k) = nu_(N-n)(k): condition (v) visits n <= N/2 and N
    datum = load(path)
    fusion = verlinde_fusion(datum)
    N = datum.ord_t
    for k in range(datum.rank):
        for n in range(1, N):
            assert fs_indicator(datum, fusion, n, k) == fs_indicator(datum, fusion, N - n, k), (n, k)


def oracle_condition_v(datum):
    """The witness of condition (v) from oracle_fs_indicator, "" when it
    holds: nu_2 on every label first, then membership in Z[zeta_N], N =
    ord(T), for n = 1..N and, within each n, every label in turn."""
    fusion = verlinde_fusion(datum)
    N = datum.ord_t
    for k in range(datum.rank):
        nu2 = oracle_fs_indicator(datum, fusion, 2, k)
        if fusion.dual[k] == k and nu2 not in (1, -1):
            return f"nu_2({k}) = {nu2} not +-1 on self-dual"
        if fusion.dual[k] != k and nu2:
            return f"nu_2({k}) != 0 on non-self-dual"
    for n in range(1, N + 1):
        for k in range(datum.rank):
            nu = oracle_fs_indicator(datum, fusion, n, k)
            if not nu.is_algebraic_integer or N % nu.conductor:
                return f"nu_{n}({k}) not in Z[zeta_{N}]"
    return ""


def oracle_verdict(datum):
    witness = oracle_condition_v(datum)
    return Verdict(not witness, witness, "FS indicators")


def work_order(datum):
    """lcm of ord(T) and the conductors of every d_i and of D^2 (that of
    D^-2), the order the indicators are decided at."""
    d2 = derived_scalars(datum).global_dim_sq
    return lcm(datum.ord_t, d2.conductor, *(d.conductor for d in datum.dims))


def t_mutations(count, seed):
    """count data files with T moved: torder times 1, 2 or 3, and each
    exponent but the unit's moved by 0, +-1 or torder/2.  S, and so the
    fusion rules, stay as they are."""
    rng = random.Random(seed)
    data = [load(path) for path in GOLDEN_FILES]
    out = []
    for _ in range(count):
        datum = rng.choice(data)
        m = rng.choice((1, 2, 3))
        N = datum.torder * m
        moves = (0, 1, -1, N // 2) if N % 2 == 0 else (0, 1, -1)
        exps = (0, *(a * m + rng.choice(moves) for a in datum.t_exponents[1:]))
        out.append(ModularDatum(datum.rank, N, exps, datum.S))
    return out


T_MUTATIONS = t_mutations(240, 1)


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_condition_v_matches_oracle_on_data_files(path):
    datum = load(path)
    assert oracle_verdict(datum) == Verdict(True, "", "FS indicators")
    assert check_admissible(datum).conditions[4] == oracle_verdict(datum)


@pytest.mark.parametrize(
    "build, arg", [(pointed_zn, 7), (su2_odd_mod2, 3), (su2_odd_mod2, 6)],
    ids=["pointed_z7", "su2_odd_mod2_3", "su2_odd_mod2_6"],
)
def test_condition_v_matches_oracle_on_catalog(build, arg):
    datum = build(arg)
    assert check_admissible(datum).conditions[4] == oracle_verdict(datum)


def test_condition_v_fails_at_the_middle_n():
    # (Z/2)^3 with theta = -1 on label 7 alone: every nu_2(k) = d_k = 1, and
    # nu_1(k) = 1/2 for k != 0; ord(T) = 2, so n = 1 is the middle n = N/2
    S = tuple(
        tuple(Cyclotomic.from_rational((-1) ** bin(i & j).count("1")) for j in range(8))
        for i in range(8)
    )
    datum = ModularDatum(8, 2, (0,) * 7 + (1,), S)
    expected = Verdict(False, "nu_1(1) not in Z[zeta_2]", "FS indicators")
    assert oracle_verdict(datum) == expected
    assert check_admissible(datum).conditions[4] == expected


@pytest.fixture(scope="module")
def t_mutation_verdicts():
    return [oracle_verdict(datum) for datum in T_MUTATIONS]


def test_condition_v_matches_oracle_on_t_mutations(t_mutation_verdicts):
    for datum, expected in zip(T_MUTATIONS, t_mutation_verdicts):
        assert check_admissible(datum).conditions[4] == expected, datum.t_exponents


def witness_kind(witness):
    """A condition (v) witness without its labels and values; "pass" for ""."""
    for kind in ("not +-1 on self-dual", "!= 0 on non-self-dual", "not in Z[zeta_"):
        if kind in witness:
            return kind
    return witness or "pass"


def test_t_mutations_reach_every_witness_kind(t_mutation_verdicts):
    kinds = {witness_kind(verdict.witness) for verdict in t_mutation_verdicts}
    assert kinds == {"pass", "not +-1 on self-dual", "!= 0 on non-self-dual", "not in Z[zeta_"}
    assert any(work_order(datum) != datum.ord_t for datum in T_MUTATIONS)
