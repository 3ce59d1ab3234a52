"""The exact identities decided from residues, against their dot-based and
matmul-based forms in `_oracles`: projective unitarity, the Verlinde tensor,
the balancing equation, the twist equation and (ST)^3 = cS^2, s^4 = Id, on
catalog data, on every lift and on seeded mutations of S and T; and the norm
bound behind every verdict, on values whose residue at the first prime is 0."""

import random
from math import lcm

import pytest

from moddata import _matrix as mat
from moddata.catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from moddata.cyclotomic import Cyclotomic, ONE, ZERO, _embedding, _residue, zeta
from moddata.modular_data import (
    FusionComputationError,
    ModularDatum,
    _SFacts,
    _projectively_unitary,
    _s_facts,
    check_balancing,
    check_twist_equation,
    derived_scalars,
    verlinde_fusion,
)
from moddata.sl2z_reps import all_lifts
from _oracles import (
    dot_check_balancing,
    dot_check_twist_equation,
    dot_projectively_unitary,
    dot_st_cubed_is,
    dot_verlinde_fusion,
    matmul_projectively_unitary,
    matmul_square_is_identity,
    separate_check_balancing,
)
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


def flip_label(datum, i):
    """S with row and column i negated (S_ii stays): S conj(S)^t = D^2 Id
    still holds, and N_ab^c changes sign with each of a, b, c equal to i."""
    sign = [-1 if a == i else 1 for a in range(datum.rank)]
    S = tuple(tuple(v * (sign[a] * sign[b]) for b, v in enumerate(row)) for a, row in enumerate(datum.S))
    return ModularDatum(datum.rank, datum.torder, datum.t_exponents, S)


def shift_entry(datum, i, j, x):
    """S with x added to S_ij and S_ji."""
    rows = [list(row) for row in datum.S]
    rows[i][j] = rows[j][i] = rows[i][j] + x
    return ModularDatum(datum.rank, datum.torder, datum.t_exponents, tuple(map(tuple, rows)))


def outcome(f, *args):
    try:
        return f(*args)
    except FusionComputationError as exc:
        return type(exc), str(exc)


def agree(datum, fusion):
    """Each identity gives what its earlier forms give; returns the verdicts."""
    ds = derived_scalars(datum)
    d2, c = ds.global_dim_sq, ds.gauss_plus
    unitary = _projectively_unitary(_s_facts(datum.S), d2)
    assert unitary == dot_projectively_unitary(datum, d2) == matmul_projectively_unitary(datum, d2)
    assert outcome(verlinde_fusion, datum) == outcome(dot_verlinde_fusion, datum)
    balancing = check_balancing(datum, fusion)
    assert balancing == dot_check_balancing(datum, fusion) == separate_check_balancing(datum, fusion)
    twist = check_twist_equation(datum)
    assert twist == dot_check_twist_equation(datum)
    assert ds.st_cubed == dot_st_cubed_is(datum.S, datum.thetas, c)
    return unitary, balancing.ok, twist.ok


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_data_hold(name):
    datum = CATALOG[name]
    assert agree(datum, verlinde_fusion(datum)) == (True, True, True)
    # S conj(S) = D^2 Id holds off the diagonal, so only the diagonal refutes 2 D^2
    wrong = derived_scalars(datum).global_dim_sq * 2
    assert not _projectively_unitary(_s_facts(datum.S), wrong)
    assert not matmul_projectively_unitary(datum, wrong)


def test_seeded_mutations_agree_and_some_fail():
    rng = random.Random(SEED)
    seen, witnesses = set(), set()
    for name, datum in sorted(CATALOG.items()):
        fusion = verlinde_fusion(datum)
        for mutant in mutations(datum, rng):
            seen.add(agree(mutant, fusion))
            witnesses.add(check_balancing(mutant, fusion).witness)
            witnesses.add(check_twist_equation(mutant).witness)
    # every identity fails on some mutation, and holds on others
    for index in range(3):
        assert {v[index] for v in seen} == {True, False}
    assert len(witnesses) > 6  # the witnesses name several entries


def test_sign_flips_raise_the_exact_witness():
    """Negating a label keeps S unitary; the Verlinde tensor then has
    negative entries, and the residue candidate hands over to the exact loop,
    which raises the same NotFusionIntegral as the dot-based tensor."""
    raised = 0
    for name, datum in sorted(CATALOG.items()):
        for i in range(1, datum.rank):
            mutant = flip_label(datum, i)
            assert _projectively_unitary(_s_facts(mutant.S), derived_scalars(mutant).global_dim_sq)
            got = outcome(verlinde_fusion, mutant)
            assert got == outcome(dot_verlinde_fusion, mutant)
            raised += isinstance(got, tuple)
    assert raised > 20


@pytest.mark.parametrize("name", ["pointed_z5", "su2_4_family_0", "su2_9_mod2", "pointed_zn(7)"])
def test_a_multiple_of_the_first_prime_is_caught_by_the_bound(name):
    """S_ij + ell, ell the first prime of the order of S, has the residues of
    S_ij there: every identity it breaks must be refuted at a later prime."""
    datum = CATALOG[name]
    fusion = verlinde_fusion(datum)
    n = datum.s_field_conductor
    ell = _embedding(n, 0)[0]
    for i, j in [(0, 1), (1, 1), (1, 2)]:
        for x in (Cyclotomic.from_rational(ell), zeta(n) * ell):
            assert agree(shift_entry(datum, i, j, x), fusion) == (False, False, False)


@pytest.mark.parametrize("order", [1, 4, 5, 11, 24, 120])
def test_first_nonzero_reads_a_multiple_of_ell_as_nonzero(order):
    """x = ell y has residue 0 at the first prime ell; the bound asks for
    more primes, and the next one finds x != 0."""
    emb = _embedding(order, 0)
    ell = emb[0]
    for x in (Cyclotomic.from_rational(ell), zeta(order) * ell, (zeta(order) + 3) * ell * ell):
        assert _residue(x, order, emb) == 0

        def entries(n, emb):
            yield _residue(ONE, n, emb) - 1  # 0
            yield _residue(x, n, emb)

        # |x zeta| = |x|: the root of unity only puts the values in Q(zeta_order)
        assert mat._first_nonzero(((1, [x], [zeta(order)]),), entries) == 1


def test_first_nonzero_agrees_with_exact_zero_tests():
    """On random sums of products, each X_i at most count products a b c of
    values from one group plus at most one ell u, _first_nonzero gives the
    index of the first X_i that is not 0 as a canonical Cyclotomic.  The
    group takes in roots of unity whose power-basis l1 is up to 14, x =
    (3 + 4i)/5, x^2 and conj(x), which have |x| = 1 and are no root of
    unity, and other values; a sum drawn to cancel, plus ell u for ell the
    first prime, has residue 0 at ell."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    x = (zeta(4) * 4 + 3) / 5
    pool = [
        ONE, Cyclotomic.from_rational(2), zeta(4), zeta(5, 4), zeta(8, 5), zeta(12, 11), zeta(15, 14),
        x, x * x, x.conjugate(), zeta(5) + 2, (zeta(3) - 1) / 2, ZERO,
    ]

    @st.composite
    def case(draw):
        group = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
        group += [-v for v in group]
        value = st.sampled_from(group)
        rows = []
        for _ in range(draw(st.integers(1, 5))):
            products = draw(st.lists(st.tuples(value, value, value), max_size=3))
            if draw(st.booleans()):  # a sum that cancels
                products += [(-a, b, c) for a, b, c in products]
            rows.append((products, draw(st.one_of(st.none(), value))))
        return group, rows

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(case())
    def check(args):
        group, rows = args
        ell = _embedding(lcm(*(v.order for v in group)), 0)[0]
        exact = [
            sum((a * b * c for a, b, c in products), ZERO) + (ell * u if u is not None else ZERO)
            for products, u in rows
        ]
        expected = next((i for i, v in enumerate(exact) if v != ZERO), None)

        def entries(n, emb):
            def res(v):
                return _residue(v, n, emb)

            for products, u in rows:
                yield sum(res(a) * res(b) * res(c) for a, b, c in products) + (ell * res(u) if u is not None else 0)

        count = max(1, *(len(products) for products, _ in rows))
        terms = ((count, group, group, group), (1, [Cyclotomic.from_rational(ell)], group))
        assert mat._first_nonzero(terms, entries) == expected

    check()


def test_st_relation_with_twists_that_are_not_roots_of_unity():
    """x = (3 + 4i)/5 has |x| = 1 but is no root of unity: its size, not 1,
    enters the bound.  (sx)^3 = c s^2 for s = +-1 and c = +-x^3."""
    x = (zeta(4) * 4 + 3) / 5
    ell = _embedding(4, 0)[0]
    for sign in (ONE, -ONE):
        cube = sign * x**3
        for c, holds in [(cube, True), (cube + ell, False), (cube * (1 + ell * zeta(4)), False)]:
            s = ((sign,),)
            assert mat._st_cubed_is(_SFacts(s), (x,), c) == dot_st_cubed_is(s, (x,), c) == holds
    s = ((ONE, ONE), (ONE, -ONE))
    for t in [(x, x), (x, zeta(4) * x), (ONE, x)]:
        for c in (x**3, ONE, zeta(8)):
            assert mat._st_cubed_is(_SFacts(s), t, c) == dot_st_cubed_is(s, t, c)


@pytest.mark.parametrize("name", ["pointed_z5", "su2_4_family_0", "su2_4_family_7", "su2_odd_mod2(6)"])
def test_every_lift_agrees(name):
    """s^4 = Id and (st)^3 = s^2 on every lift, and on the lift with s
    negated in one entry, against the matmul and dot forms."""
    seen = set()
    for rep in all_lifts(CATALOG[name]):
        identity = tuple(range(rep.rank))
        s2 = mat.matmul(rep.s, rep.s)
        facts = _SFacts(rep.s)
        assert mat._power_permutation(facts, 4, ONE) == identity and matmul_square_is_identity(s2)
        assert mat._st_cubed_is(facts, rep.t, ONE) and dot_st_cubed_is(rep.s, rep.t, ONE)
        bent = tuple(
            tuple(-v if (a, b) == (1, 1) else v for b, v in enumerate(row)) for a, row in enumerate(rep.s)
        )
        bent2 = mat.matmul(bent, bent)
        facts = _SFacts(bent)
        square = mat._power_permutation(facts, 4, ONE) == identity
        assert square == matmul_square_is_identity(bent2)
        cubed = mat._st_cubed_is(facts, rep.t, ONE)
        assert cubed == dot_st_cubed_is(bent, rep.t, ONE)
        seen.add((square, cubed))
    assert (False, False) in seen
