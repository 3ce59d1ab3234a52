"""The exact identities that check one dot of the difference per entry,
against their earlier forms in `_oracles`: projective unitarity, the
balancing equation and the residual of (ST)^3 = cS^2, on catalog data and on
seeded one-entry mutations of S and T."""

import random

import pytest

from moddata import _matrix as mat
from moddata.catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from moddata.cyclotomic import ONE, zeta
from moddata.modular_data import (
    _projectively_unitary,
    check_balancing,
    derived_scalars,
    verlinde_fusion,
)
from _oracles import matmul_projectively_unitary, matmul_st_residual, separate_check_balancing
from test_modular_data import perturb_twist, scale_entry

SEED = 20261019

CATALOG = {
    **dict(rank5_catalog()),
    **{f"su2_4_family_{i}": d for i, d in enumerate(su2_4_family_all())},
    "su2_odd_mod2(6)": su2_odd_mod2(6),
    "pointed_zn(7)": pointed_zn(7),
}


def mutations(datum, rng, count=6):
    """Seeded copies of datum, each with one twist or one S entry (and its
    mirror) changed; S_00 = 1 stays."""
    r, out = datum.rank, []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append(perturb_twist(datum, rng.randrange(1, r), rng.randrange(1, datum.torder)))
        else:
            i, j = sorted((rng.randrange(r), rng.randrange(1, r)))
            factor = rng.choice([-ONE, ONE + ONE, zeta(3), zeta(4), ONE - zeta(5)])
            out.append(scale_entry(datum, i, j, factor))
    return out


def agree(datum, fusion):
    """Each identity gives what its earlier form gives; returns the verdicts."""
    d2 = derived_scalars(datum).global_dim_sq
    conj_rows = _projectively_unitary(datum, d2)
    unitary = conj_rows is not None
    assert unitary == matmul_projectively_unitary(datum, d2)
    if unitary:
        assert conj_rows == [[v.conjugate() for v in row] for row in datum.S]
    balancing = check_balancing(datum, fusion)
    assert balancing == separate_check_balancing(datum, fusion)
    c = derived_scalars(datum).gauss_plus
    res = mat._st_residual(datum.S, datum.thetas, c)
    assert res == matmul_st_residual(datum.S, datum.thetas, c)
    return unitary, balancing.ok, not any(v for row in res for v in row)


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_data_hold(name):
    datum = CATALOG[name]
    assert agree(datum, verlinde_fusion(datum)) == (True, True, True)
    # S conj(S) = D^2 Id holds off the diagonal, so only the diagonal refutes 2 D^2
    wrong = derived_scalars(datum).global_dim_sq * 2
    assert _projectively_unitary(datum, wrong) is None
    assert not matmul_projectively_unitary(datum, wrong)


def test_seeded_mutations_agree_and_some_fail():
    rng = random.Random(SEED)
    seen, witnesses = set(), set()
    for name, datum in sorted(CATALOG.items()):
        fusion = verlinde_fusion(datum)
        for mutant in mutations(datum, rng):
            seen.add(agree(mutant, fusion))
            witnesses.add(check_balancing(mutant, fusion).witness)
    # every identity fails on some mutation, and holds on others
    for index in range(3):
        assert {v[index] for v in seen} == {True, False}
    assert len(witnesses) > 3  # the balancing witnesses name several entries

