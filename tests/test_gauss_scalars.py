"""The per-datum scalars of derived_scalars and the lift scalar lam, against
the forms their definitions read.

derived_scalars forms each Gauss sum as one dot and, when p+ p- = D^2 != 0,
the anomaly as p+^2 D^-2; _lifts forms lam = zeta^3 p- D^-2 there.  Each is
compared with the quotient its definition reads (p+ p-^-1 and zeta^3 p+^-1,
by Cyclotomic.inverse).  Data off that path (p- = 0, p+ p- != D^2, D^2 = 0)
are pinned to their exit codes and messages in check and rep.  Spies pin
the work: one norm inverse per S on check and none per datum, and one
product per class a mod 4 that the lifts reach."""

import json
from pathlib import Path

import pytest

from moddata import cli
from moddata import cyclotomic as cy
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import ONE, Cyclotomic, is_prime, sum_cyclotomics, zeta
from moddata.modular_data import ModularDatum, _s_facts, derived_scalars, load, save, verlinde_fusion
from moddata.galois import galois_twist_symmetry
from moddata.sl2z_reps import (
    NotModularRepresentation,
    _anomaly_sixth_root,
    all_lifts,
    normalize,
    spectra_connectivity,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

I = zeta(4)

# S = [[1, i], [i, 1]] with T exponents (0, 1) mod 4: D^2 = 0 and p+ p- = 2
D2_ZERO = ModularDatum(2, 4, (0, 1), ((ONE, I), (I, ONE)))

BUILDERS = {
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
    # the families' members for p in 2..7 and n in 3..11: 2p + 1 prime, n odd
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in range(2, 8) if is_prime(2 * p + 1)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in range(3, 12, 2)},
    "d2_zero": lambda: D2_ZERO,
}


def fresh():
    for cache in (_s_facts, derived_scalars, verlinde_fusion, normalize):
        cache.cache_clear()


@pytest.fixture()
def spies(monkeypatch):
    """Every inverted value, every _canonical call and every product."""
    seen = {"inverse": [], "canonical": 0, "mul": []}
    inverse, canonical, mul = Cyclotomic.inverse, cy._canonical, Cyclotomic.__mul__

    def counting_inverse(x):
        seen["inverse"].append(x)
        return inverse(x)

    def counting_canonical(*args):
        seen["canonical"] += 1
        return canonical(*args)

    def counting_mul(x, y):
        seen["mul"].append((x, y))
        return mul(x, y)

    monkeypatch.setattr(Cyclotomic, "inverse", counting_inverse)
    monkeypatch.setattr(cy, "_canonical", counting_canonical)
    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)

    def reset():
        seen["inverse"].clear()
        seen["mul"].clear()
        seen["canonical"] = 0

    seen["reset"] = reset
    return seen


@pytest.mark.parametrize("name", list(BUILDERS))
def test_scalars_match_their_definitions(name):
    datum = BUILDERS[name]()
    ds = derived_scalars(datum)
    dims_sq = [d * d for d in datum.dims]
    assert ds.thetas == datum.thetas
    assert ds.gauss_plus == sum_cyclotomics(dq * th for dq, th in zip(dims_sq, datum.thetas))
    assert ds.gauss_minus == sum_cyclotomics(dq * th.conjugate() for dq, th in zip(dims_sq, datum.thetas))
    assert ds.gauss_product_is_d2 == (ds.gauss_plus * ds.gauss_minus == ds.global_dim_sq)
    assert ds.anomaly == ds.gauss_plus * ds.gauss_minus.inverse()


@pytest.mark.parametrize("name", list(BUILDERS))
def test_each_lift_scalar_is_zeta_cubed_over_p_plus(name):
    datum = BUILDERS[name]()
    if name == "d2_zero":
        with pytest.raises(NotModularRepresentation, match=r"^s\^4 != Id$"):
            all_lifts(datum)
        return
    m, e = _anomaly_sixth_root(datum)
    lam = zeta(m, 3 * e) * derived_scalars(datum).gauss_plus.inverse()
    reps = all_lifts(datum)
    assert [rep.lam for rep in reps] == [lam * zeta(4, -a) for a in range(12)]
    canonical = normalize(datum)
    assert canonical.lam in (lam, -lam) and canonical in reps


# (name, S, torder, t_exponents, the check witnesses (i) to (vii), rep's message)
OFF_PATH = [
    (
        "p- = 0, p+ != 0", ((ONE, zeta(8, 3)), (zeta(8, 3), ONE)), 4, (0, 1),
        ("d_1 is not real", "vanishing Gauss sum", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "F_S has conductor 8, not inside Q_4", ""),
        "p- = 0: anomaly undefined",
    ),
    (
        "p+ = p- = 0", ((ONE, ONE), (ONE, -ONE)), 2, (0, 1),
        ("", "vanishing Gauss sum", "", "(1, 1)", "", "", ""),
        "p- = 0: anomaly undefined",
    ),
    (
        "p+ p- != D^2", ((ONE, ONE), (ONE, ONE)), 1, (0, 0),
        ("S*conj(S)^t != D^2*Id", "p+ p- != D^2", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "duplicate character columns 0, 1", "supp Norm(D^2) = [2] != supp N = []"),
        "s^4 != Id",
    ),
    (
        "p+ p- != D^2, anomaly a root of unity", ((ONE, 2 * ONE), (2 * ONE, ONE)), 2, (0, 1),
        ("S*conj(S)^t != D^2*Id", "(ST)^3 != p+ S^2", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "", "supp Norm(D^2) = [5] != supp N = [2]"),
        "s^4 != Id",
    ),
    (
        "p+ p- != D^2, anomaly no root of unity", ((ONE, 2 * ONE), (2 * ONE, ONE)), 3, (0, 1),
        ("S*conj(S)^t != D^2*Id", "(ST)^3 != p+ S^2", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "", "supp Norm(D^2) = [5] != supp N = [3]"),
        "anomaly is not a root of unity",
    ),
    (
        "D^2 = 0", D2_ZERO.S, 4, (0, 1),
        ("d_1 is not real", "(ST)^3 != p+ S^2", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "", "D^2 = 0"),
        "s^4 != Id",
    ),
    (
        "p+ = 0, D^2 = 0", D2_ZERO.S, 1, (0, 0),
        ("d_1 is not real", "vanishing Gauss sum", "S * conj(S)^t != D^2 * Id", "no fusion", "no fusion",
         "F_S has conductor 4, not inside Q_1", "D^2 = 0"),
        "p- = 0: anomaly undefined",
    ),
]


@pytest.mark.parametrize("case", OFF_PATH, ids=[case[0] for case in OFF_PATH])
def test_off_the_d2_inverse_path_check_and_rep_keep_their_messages(case, tmp_path, capsys):
    _, S, torder, exps, witnesses, rep_message = case
    path = str(tmp_path / "datum.json")
    save(ModularDatum(2, torder, exps, S), path)
    assert cli.main(["check", path]) == cli.EXIT_FAIL
    rows = capsys.readouterr().out.splitlines()[:7]
    assert [row.partition("[")[2][:-1] for row in rows] == list(witnesses)
    assert cli.main(["--json", "check", path]) == cli.EXIT_FAIL
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    assert [c["witness"] for c in conditions] == list(witnesses)
    for argv in (["rep", path], ["--json", "rep", path]):
        assert cli.main(argv) == cli.EXIT_FAIL
        assert capsys.readouterr().err == f"predicate failure: {rep_message}\n"


def test_p_plus_zero_with_d2_zero_takes_no_d2_inverse(spies):
    """p+ p- = 0 = D^2 holds, but D^-2 does not exist: the guard D^2 != 0
    keeps the anomaly on the p- test, which finds p- = 0."""
    datum = ModularDatum(2, 1, (0, 0), D2_ZERO.S)
    ds = derived_scalars(datum)
    assert not ds.gauss_plus and not ds.gauss_minus and not ds.global_dim_sq
    assert ds.gauss_product_is_d2 and ds.anomaly is None
    assert spies["inverse"] == []


def test_check_takes_one_norm_inverse_per_distinct_s(spies, capsys):
    fresh()
    paths = sorted(DATA_DIR.glob("*.json"))
    distinct_s = {load(p).S for p in paths}
    spies["reset"]()
    for path in paths:
        cli.main(["check", str(path)])
    capsys.readouterr()
    assert len(paths) == 18 and len(distinct_s) == 6
    assert sorted(map(str, spies["inverse"])) == sorted(str(_s_facts(S).global_dim_sq) for S in distinct_s)
    assert spies["canonical"] <= 309


@pytest.mark.parametrize("name", [name for name in BUILDERS if name != "d2_zero"])
def test_the_lifts_invert_d2_alone_and_form_one_product_per_class(spies, name):
    """From nothing cached, all_lifts inverts D^2 and nothing else, and forms
    lam i^-a by a product for a = 1 and a = 3 alone; normalize forms none."""
    datum = BUILDERS[name]()
    for lifts, products in ((all_lifts, 2), (lambda d: [normalize(d)], 0)):
        fresh()
        spies["reset"]()
        reps = lifts(datum)
        assert spies["inverse"] == [derived_scalars(datum).global_dim_sq]
        lam = {reps[0].lam, -reps[0].lam}
        rotations = {I, -I, -ONE}
        assert sum(bool({x, y} & lam and {x, y} & rotations) for x, y in spies["mul"]) == products


def test_gauss_sums_are_one_canonical_form_each(spies):
    """With S analysed, derived_scalars canonicalises p+, p-, p+ p- and the
    two products of p+^2 D^-2: five forms, with no inverse."""
    for name in ("su2_9_mod2.json", "su2_odd_mod2(6)", "pointed_zn(11)"):
        datum = BUILDERS[name]()
        fresh()
        _s_facts(datum.S).global_dim_sq_inv
        spies["reset"]()
        assert derived_scalars(datum).gauss_product_is_d2
        assert spies["canonical"] == 5 and spies["inverse"] == []


def test_a_lift_ladder_pass_stays_within_its_counts(spies):
    """The rungs of perfbench's lift_ladder workload, run as it runs them."""
    data = [su2_odd_mod2(3), pointed_zn(5), su2_odd_mod2(5)]
    canonical = pointed_zn(7)
    fresh()
    spies["reset"]()
    reps = [rep for datum in data for rep in all_lifts(datum)] + [normalize(canonical)]
    for rep in reps:
        galois_twist_symmetry(rep)
        spectra_connectivity(rep)
    assert spies["canonical"] <= 120
    assert len(spies["inverse"]) == 4  # D^-2 once per datum, two of them rational
