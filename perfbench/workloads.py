"""Workload definitions: the items each workload runs and how an item's
output is reduced to the value the reference gate compares.

An item is ``(item_id, run)``: ``run()`` does the timed work and returns the
raw result; ``fingerprint(item_id, raw)`` (untimed) turns it into plain JSON.

Why these workloads (see perfbench/README.md for the numbers):

* ``golden_check``: ``moddata check`` on each golden file, the everyday
  command; its time goes to Frobenius-Schur indicators and conductor descent.
* ``lift_ladder``: SL(2,Z) lifts along the rank/conductor scaling ladder;
  its time goes to ``_matrix.matmul`` inside ``verify_relations`` and to
  conductor descent at large lift fields.
* ``vanishing_scan``: the vanishing-sum lemma scan; many small distinct
  cyclotomics at varying orders and the classifier's Gauss-Jordan kernel,
  almost no products.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

WORKLOADS = ("golden_check", "lift_ladder", "vanishing_scan")

DATA_DIR = Path("data")

# (item id, constructor name, argument, "all" lifts or the canonical lift only)
LADDER = (
    ("lifts:su2_odd_mod2(3)", "su2_odd_mod2", 3, "all"),
    ("lifts:pointed_zn(5)", "pointed_zn", 5, "all"),
    ("lifts:su2_odd_mod2(5)", "su2_odd_mod2", 5, "all"),
    ("normalize:pointed_zn(7)", "pointed_zn", 7, "canonical"),
)
SMOKE_LADDER = (("lifts:su2_odd_mod2(2)", "su2_odd_mod2", 2, "all"),)

SCAN_ORDERS = (24, 36, 48)
SMOKE_SCAN_ORDERS = (8,)

GOLDEN_SMOKE_FILES = ("pointed_z5.json",)


def golden_files(smoke: bool) -> list[str]:
    if smoke:
        return list(GOLDEN_SMOKE_FILES)
    return sorted(p.name for p in DATA_DIR.glob("*.json"))


def build_items(workload: str, smoke: bool) -> list[tuple[str, object]]:
    """The workload's inputs, built in set-up; each entry is (id, thunk)."""
    from moddata import catalog, classifier, cli, galois, sl2z_reps

    if workload == "golden_check":

        def check(path: str):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", path])
            return code, out.getvalue()

        return [
            (f"check:{name}", lambda p=str(DATA_DIR / name): check(p))
            for name in golden_files(smoke)
        ]

    if workload == "lift_ladder":

        def lifts(datum, mode: str):
            reps = (
                sl2z_reps.all_lifts(datum)
                if mode == "all"
                else [sl2z_reps.normalize(datum)]
            )
            return [
                (
                    rep,
                    bool(galois.galois_twist_symmetry(rep)),
                    bool(sl2z_reps.spectra_connectivity(rep)),
                )
                for rep in reps
            ]

        items = []
        for item_id, ctor, arg, mode in SMOKE_LADDER if smoke else LADDER:
            datum = getattr(catalog, ctor)(arg)
            items.append((item_id, lambda d=datum, m=mode: lifts(d, m)))
        return items

    if workload == "vanishing_scan":
        orders = SMOKE_SCAN_ORDERS if smoke else SCAN_ORDERS
        return [
            (f"scan:{m}", lambda m=m: classifier.vanishing_sum_scan(m))
            for m in orders
        ]

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(item_id: str, raw) -> object:
    """Plain-JSON form of an item's output, as stored in the reference."""
    kind = item_id.split(":", 1)[0]
    if kind == "check":
        code, stdout = raw
        return {"exit": code, "stdout": stdout}
    if kind in ("lifts", "normalize"):
        return [
            {
                "level": rep.level,
                "parity": rep.parity,
                "st_sha256": _sha256_json(
                    {
                        "s": [[x.to_json() for x in row] for row in rep.s],
                        "t": [x.to_json() for x in rep.t],
                    }
                ),
                "twist_symmetry": twist,
                "connected": connected,
            }
            for rep, twist, connected in raw
        ]
    if kind == "scan":
        return [
            {k: (v.to_json() if hasattr(v, "to_json") else v) for k, v in hit.items()}
            for hit in raw
        ]
    raise ValueError(f"unknown item kind in {item_id!r}")
