"""Verdicts shared along classes and orbits: the vanishing-sum scan runs its
kernel once per class of root pairs under Galois, signs and swap, and the
twist-symmetry check reads h_sigma from the one map per S that _SFacts
reads from residues, for a lift and a rep built by hand alike, and compares
the twists by their exponents.
Both are compared with the term-by-term loops they replace, kept here as
oracles, and the scan's class key with a brute-force class."""

from math import gcd, lcm

import pytest

from moddata import classifier, modular_data
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.classifier import (
    _all_nonzero_solution_exists,
    _pair_class,
    vanishing_sum_scan,
)
from moddata.cyclotomic import ONE, Cyclotomic, units_mod, zeta
from moddata.galois import galois_twist_symmetry
from moddata.modular_data import Verdict, _characters, _match_permutation, _s_facts, derived_scalars, replace
from moddata.sl2z_reps import (
    ModularRep,
    NotModularRepresentation,
    all_lifts,
    normalize,
    spectra_connectivity,
)
from _oracles import kernel_all_nonzero_solution_exists, lift, root_pair_class, twist_exponents
from test_lift_algebra import BUILDERS, datum_of


def oracle_vanishing_sum_scan(max_order, oracle_exists=kernel_all_nonzero_solution_exists):
    """One kernel call per pair of roots, every pair visited."""
    roots = []
    for order in range(1, max_order + 1):
        for e in range(order):
            if order == 1 or gcd(e, order) == 1:
                roots.append((order, zeta(order, e)))
    counterexamples = []
    i_root = zeta(4)
    for orda, alpha in roots:
        for ordb, beta in roots:
            if orda > ordb:
                continue
            if (alpha == ONE or alpha == -ONE) and (
                beta == i_root or beta == -i_root
            ):
                continue
            if lcm(4, alpha.conductor) % beta.conductor:
                continue
            if lcm(4, beta.conductor) % alpha.conductor:
                continue
            if oracle_exists(lift([ONE, i_root, alpha, beta])):
                counterexamples.append(
                    {"alpha": alpha, "beta": beta, "ord_alpha": orda, "ord_beta": ordb}
                )
    return counterexamples


@pytest.mark.parametrize("max_order", [24, 36])
def test_scan_matches_kernel_only_oracle(max_order):
    # the real verdicts: the scan's support shortcut and class walk against
    # one kernel-only decision per pair
    assert vanishing_sum_scan(max_order) == oracle_vanishing_sum_scan(max_order) == []


def test_kernel_verdict_constant_on_orbits():
    # every ordered pair of roots of order <= 20, none of the scan's filters
    # applied: the verdict is constant on each Galois orbit of the pairs the
    # scan could visit (ord alpha <= ord beta), and on each class under
    # Galois, signs and swap
    roots = [
        (m, e, zeta(m, e)) for m in range(1, 21) for e in range(m) if gcd(e, m) == 1
    ]
    by_orbit, by_class = {}, {}
    for m, ea, alpha in roots:
        for n, eb, beta in roots:
            hit = _all_nonzero_solution_exists(lift([ONE, zeta(4), alpha, beta]))
            assert by_class.setdefault(root_pair_class(m, ea, n, eb), hit) == hit, (m, ea, n, eb)
            if m <= n:
                g = gcd(m, n)
                key = (m, n, eb * pow(ea, -1, g) % g)
                assert by_orbit.setdefault(key, hit) == hit, (m, ea, n, eb)
    # the forced shape (+-1, +-i) is the only true orbit, and its class the
    # only true class
    assert {key for key, hit in by_orbit.items() if hit} == {(1, 4, 0), (2, 4, 1)}
    assert [cls for cls, hit in by_class.items() if hit] == [root_pair_class(1, 0, 4, 1)]


def exponents(alpha, beta):
    """(m, ea, n, eb) for alpha = zeta_m^ea and beta = zeta_n^eb."""
    return (*alpha.root_of_unity_log(), *beta.root_of_unity_log())


def test_scan_key_is_the_brute_force_class(monkeypatch):
    # a kernel that always hits makes the scan list every pair it visits;
    # on them its key and the brute-force class induce one partition
    monkeypatch.setattr(classifier, "_all_nonzero_solution_exists", lambda columns: True)
    pairs = vanishing_sum_scan(36)
    monkeypatch.undo()
    keys, classes = {}, {}
    for pair in pairs:
        m, ea, n, eb = exponents(pair["alpha"], pair["beta"])
        assert (m, n) == (pair["ord_alpha"], pair["ord_beta"])
        key, cls = _pair_class(m, ea, n, eb), root_pair_class(m, ea, n, eb)
        assert keys.setdefault(key, cls) == cls, (m, ea, n, eb)
        assert classes.setdefault(cls, key) == key, (m, ea, n, eb)
    assert len(pairs) > 10 * len(keys) and len(keys) == 198


def roots_of(columns):
    """alpha and beta from the integer columns of 1, i, alpha, beta on the
    power basis of Q_L.  i = zeta_L^(L/4), so when its column is the single
    basis element zeta_L^e (true below L = 420) e is L/4, which names L."""
    assert columns[0] == {0: 1}
    ((e, c),) = columns[1].items()
    assert c == 1
    return Cyclotomic(4 * e, columns[2]), Cyclotomic(4 * e, columns[3])


FAKE_KERNELS = {
    # stand-ins for the kernel that make hits exist; like the real verdict,
    # each is a function of the class under Galois, signs and swap.  One
    # hits every class at an order L divisible by 3, one the single class of
    # (zeta_5^2, zeta_10^3), which holds pairs with alpha of order 5 and 10
    "order_3": lambda cls: cls[0] % 3 == 0,
    "one_class": lambda cls: cls == root_pair_class(5, 2, 10, 3),
}


@pytest.mark.parametrize("fake_name", sorted(FAKE_KERNELS))
@pytest.mark.parametrize("max_order", [12, 24])
def test_scan_matches_oracle_with_hits(monkeypatch, max_order, fake_name):
    # the fake stands in for the verdict on integer columns, which the scan
    # (rows read from its table) and the oracle (columns lifted by lift)
    # both take
    calls = []

    def fake(columns):
        pair = exponents(*roots_of(columns))
        calls.append((root_pair_class(*pair), pair))
        return FAKE_KERNELS[fake_name](calls[-1][0])

    monkeypatch.setattr(classifier, "_all_nonzero_solution_exists", fake)
    expected = oracle_vanishing_sum_scan(max_order, fake)
    classes = {cls for cls, _ in calls}
    calls.clear()
    got = vanishing_sum_scan(max_order)
    assert expected
    assert got == expected
    # one kernel call per class of the pairs the oracle visits, so most
    # listed pairs (alpha of exponent 2, for one) never reach the kernel
    assert sorted(cls for cls, _ in calls) == sorted(classes)
    called = {pair for _, pair in calls}
    listed = [exponents(d["alpha"], d["beta"]) for d in got]
    unseen = [pair for pair in listed if pair not in called]
    assert any(ea == 2 for _, ea, _, _ in unseen)


def outcome(f, rep):
    """The verdict, or the type of the exception raised."""
    try:
        return f(rep)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def oracle_twist_symmetry(rep, matched=None):
    """One permutation match and two Galois images per unit mod the level,
    once the conductor c of the column values is seen to divide the level.

    Lifts of one datum share their character columns, and may share a dict
    matched that keeps each match by k mod c: sigma_k on Q_c depends on k
    mod c only."""
    cols = _characters(rep.s)
    n, c, t = rep.level, lcm(*(v.conductor for col in cols for v in col)), rep.t
    if n % c:
        raise ValueError(c)
    for k in units_mod(n):
        if matched is None:
            perm = _match_permutation(cols, k)
        elif k % c in matched:
            perm = matched[k % c]
        else:
            perm = matched[k % c] = _match_permutation(cols, k)
        for i, t_i in enumerate(t):
            if t_i.galois(k).galois(k) != t[perm[i]]:
                return Verdict(False, (k, i), "sigma^2(t_i) != t_{h(i)}")
    return Verdict(True)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_twist_symmetry_matches_oracle_on_all_lifts(name):
    for rep in all_lifts(datum_of(name)):
        verdict = galois_twist_symmetry(rep)
        assert verdict.ok
        assert verdict == oracle_twist_symmetry(rep)


@pytest.mark.parametrize(
    "build",
    [
        lambda: su2_odd_mod2(3), lambda: pointed_zn(5), lambda: su2_odd_mod2(5),
        lambda: su2_odd_mod2(1), lambda: pointed_zn(1),
    ],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)", "su2_odd_mod2(5)", "su2_odd_mod2(1)", "pointed_zn(1)"],
)
def test_twist_symmetry_matches_h_sigma_once_per_datum(build, monkeypatch):
    # _SFacts reads h_sigma from residues once per S, at the conductor of S,
    # and the 12 lifts read that map: no unit is matched on character
    # values, at c = 1 (k mod 1 = 0, units_mod(1) = [1]) too
    reads, matches = [], []
    read, match = modular_data._residue_perms, modular_data._match_permutation
    monkeypatch.setattr(
        modular_data, "_residue_perms", lambda facts, units: reads.append(facts.conductor) or read(facts, units)
    )
    monkeypatch.setattr(modular_data, "_match_permutation", lambda cols, k: matches.append(k) or match(cols, k))
    datum = build()
    reps = all_lifts(datum)
    assert all(galois_twist_symmetry(rep).ok for rep in reps)
    assert reads == [datum.s_field_conductor] and matches == []
    assert all(_s_facts(rep.S).h_sigma is _s_facts(datum.S).h_sigma for rep in reps)


@pytest.mark.parametrize("stored", [True, False], ids=["characters", "no-characters"])
def test_twist_symmetry_refuses_a_conductor_outside_the_level(stored):
    # the characters of su2_odd_mod2(3) have conductor 7; at level 8 the unit
    # k = 7 is 0 mod 7, where no h_sigma exists.  The lift and its copy built
    # by hand from s read the same _SFacts and raise alike
    rep = replace(normalize(su2_odd_mod2(3)), level=8, t_exponents=(0, 1, 0))
    if not stored:
        rep = replace(rep, S=rep.s, lam=ONE)
    with pytest.raises(ValueError, match="^the conductor 7 of F_S does not divide the level 8$"):
        galois_twist_symmetry(rep)


def test_twist_symmetry_checks_the_conductor_of_f_s_on_a_hand_built_s():
    # S = [[1, zeta_3], [1, -zeta_3]] is not symmetric: its character columns
    # (1, 1) and (1, -1) are rational, but F_S = Q(zeta_3).  The conductor
    # checked, and named by the message, is F_S's, 3, not the characters' 1,
    # which the oracle checks: a genuine rep has s, and so S = s / s_00, in
    # Q_level
    S = ((ONE, zeta(3)), (ONE, -zeta(3)))
    low, high = ModularRep(2, S, 2, (0, 1), "even"), ModularRep(2, S, 6, (0, 1), "even")
    assert oracle_twist_symmetry(low) == Verdict(True)
    with pytest.raises(ValueError, match="^the conductor 3 of F_S does not divide the level 2$"):
        galois_twist_symmetry(low)
    assert _s_facts(S).h_sigma == (3, {1: (0, 1), 2: (0, 1)})
    assert galois_twist_symmetry(high) == oracle_twist_symmetry(high) == Verdict(True)


def with_twists(rep, t):
    """rep with twists t, their level and exponents read off by their logs."""
    level, exps = twist_exponents(t)
    bent = replace(rep, level=level, t_exponents=exps)
    assert bent.t == tuple(t)
    return bent


@pytest.mark.parametrize(
    "build",
    [lambda: su2_odd_mod2(3), lambda: su2_odd_mod2(5), lambda: pointed_zn(1)],
    # pointed_zn(1) has rational characters: c = 1, and every k, failing k
    # included, reads the permutation stored under units_mod(1) = [1]
    ids=["su2_odd_mod2(3)", "su2_odd_mod2(5)", "pointed_zn(1)"],
)
def test_twist_symmetry_witness_on_perturbed_twists(build):
    failures = set()
    for rep in all_lifts(build())[:3]:
        for i in range(rep.rank):
            for factor in (-ONE, zeta(3), zeta(7)):
                t = list(rep.t)
                t[i] = t[i] * factor
                bent = with_twists(rep, t)
                verdict = galois_twist_symmetry(bent)
                assert verdict == oracle_twist_symmetry(bent)
                if not verdict.ok:
                    failures.add(verdict.witness)
    assert len(failures) > 1


def count_galois_work(monkeypatch):
    """Lists that collect the Galois images and the character matches made
    while the patch lasts."""
    images, matches = [], []
    image, match = Cyclotomic.galois, modular_data._match_permutation
    monkeypatch.setattr(Cyclotomic, "galois", lambda x, k: images.append(k) or image(x, k))
    monkeypatch.setattr(modular_data, "_match_permutation", lambda cols, k: matches.append(k) or match(cols, k))
    return images, matches


@pytest.mark.parametrize(
    "build", [lambda: su2_odd_mod2(3), lambda: pointed_zn(5)],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)"],
)
def test_twist_symmetry_compares_logs_not_galois_images(build, monkeypatch):
    # building the lifts takes one root-of-unity log, the anomaly's; checking
    # them takes no Galois image and no character match, since h_sigma comes
    # from the map the lift builder stored
    datum = build()
    derived_scalars(datum)
    logs = []
    log = Cyclotomic.root_of_unity_log
    monkeypatch.setattr(Cyclotomic, "root_of_unity_log", lambda x: logs.append(x) or log(x))
    reps = all_lifts(datum)
    assert len(logs) == 1
    images, matches = count_galois_work(monkeypatch)
    verdicts = [(galois_twist_symmetry(rep), spectra_connectivity(rep)) for rep in reps]
    assert images == [] and matches == []
    monkeypatch.undo()
    for rep, (twist, connected) in zip(reps, verdicts):
        assert twist == oracle_twist_symmetry(rep)
        assert connected.ok


def test_twist_symmetry_forms_no_galois_image_on_the_data_lifts(monkeypatch):
    reps = [rep for name in BUILDERS if name.endswith(".json") for rep in all_lifts(datum_of(name))]
    assert len(reps) == 18 * 12
    images, matches = count_galois_work(monkeypatch)
    verdicts = [galois_twist_symmetry(rep) for rep in reps]
    assert images == [] and matches == []
    assert all(verdicts)


@pytest.mark.parametrize(
    "build", [lambda: su2_odd_mod2(3), lambda: pointed_zn(5), lambda: pointed_zn(1)],
    ids=["su2_odd_mod2(3)", "pointed_zn(5)", "pointed_zn(1)"],
)
def test_twist_symmetry_by_galois_images_on_hand_built_twists(build):
    # twists bent to other roots of unity agree with the oracle; t * zeta_3 + t
    # = -t * zeta_3^2 may move the level.  A level that is not the order of t,
    # such as a multiple of the lift's, cannot be built
    compared = 0
    for rep in all_lifts(build())[:3]:
        for factor in (2, 3):
            with pytest.raises(NotModularRepresentation, match="is not the order of t$"):
                replace(
                    rep,
                    level=factor * rep.level,
                    t_exponents=tuple(factor * e for e in rep.t_exponents),
                )
        for i in range(rep.rank):
            for bend in (lambda t: t * t + t, lambda t: t * zeta(3) + t):
                t = list(rep.t)
                t[i] = bend(t[i])
                if t[i].root_of_unity_log() is None:
                    continue
                bent = with_twists(rep, t)
                assert outcome(galois_twist_symmetry, bent) == outcome(oracle_twist_symmetry, bent)
                compared += 1
    assert compared >= 3 * rep.rank
