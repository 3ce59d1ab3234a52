"""Frobenius-Schur indicators against an independent term-by-term oracle,
and the failing branches of admissibility condition (v)."""

from pathlib import Path

import pytest

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
