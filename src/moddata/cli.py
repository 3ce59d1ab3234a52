"""Batch command-line front end.

Exit codes: 0 all checks pass, 1 a predicate fails, 2 usage or I/O error.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

from . import catalog
from .classifier import grothendieck_equiv, rank5_suite
from .cyclotomic import zeta
from .field_theory import GroupShape, enumerate_levels
from .galois import NotGaloisSymmetric, compute_profile
from .modular_data import (
    FusionComputationError,
    NotGaloisStable,
    SchemaViolation,
    check_admissible,
    load,
    save,
    verlinde_fusion,
)
from .sl2z_reps import NotModularRepresentation, normalize, spectra_connectivity

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=1))


def _cmd_check(args) -> int:
    datum = load(args.datum)
    report = check_admissible(datum)
    if args.json:
        _print_json(report.to_json())
    else:
        print(report.format_table())
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_fusion(args) -> int:
    datum = load(args.datum)
    fusion = verlinde_fusion(datum)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "rank": fusion.rank,
                "dual": list(fusion.dual),
                "tensor": fusion.tensor,
            }
        )
    else:
        for i in range(fusion.rank):
            print(f"N_{i} =")
            for row in fusion.matrix(i):
                print("  " + " ".join(f"{v:2d}" for v in row))
    return EXIT_OK


def _cmd_galois(args) -> int:
    datum = load(args.datum)
    rep = normalize(datum)
    profile = compute_profile(datum, rep=rep)
    if args.json:
        _print_json(profile.to_json())
    else:
        print(f"conductor of F_S: {profile.field_conductor}")
        print(f"units: {list(profile.units)}")
        for k in profile.units:
            line = f"  sigma_{k}: perm {list(profile.perms[k])}"
            if k in profile.signs:
                line += f", signs {list(profile.signs[k])}"
            print(line)
        print(f"orbits: {[list(o) for o in profile.orbits]}")
    return EXIT_OK


def _cmd_rep(args) -> int:
    datum = load(args.datum)
    rep = normalize(datum)
    conn = spectra_connectivity(rep)
    spectrum = [
        (str(v), rep.level // gcd(e, rep.level), v.complex_eval())
        for e, v in zip(rep.t_exponents, rep.t)
    ]
    if args.json:
        _print_json(
            {
                "schema": 1,
                "level": rep.level,
                "parity": rep.parity,
                "t_spectrum": [
                    {"value": s, "order": o, "approx": [z.real, z.imag]}
                    for s, o, z in spectrum
                ],
                "connected": conn.ok,
            }
        )
    else:
        print(f"level: {rep.level}")
        print(f"parity: {rep.parity}")
        print("t-spectrum:")
        for s, o, z in spectrum:
            print(f"  {s}  (order {o}, ~ {z.real:+.6f}{z.imag:+.6f}i)")
        print(f"connectivity: {'connected' if conn.ok else 'DISCONNECTED'}")
    return EXIT_OK if conn.ok else EXIT_FAIL


def _cmd_levels(args) -> int:
    shape = GroupShape.parse(args.shape)
    levels = sorted(enumerate_levels(shape))
    if args.json:
        _print_json({"schema": 1, "levels": levels})
    else:
        for n in levels:
            print(n)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.family == "golden":
        outdir = Path(args.out or "data")
        outdir.mkdir(parents=True, exist_ok=True)
        for name, datum in catalog.rank5_catalog():
            save(datum, outdir / f"{name}.json")
            print(outdir / f"{name}.json")
        return EXIT_OK
    if args.family == "su2-odd-mod2":
        datum = catalog.su2_odd_mod2(args.p, args.conj)
    elif args.family == "pointed":
        datum = catalog.pointed_zn(args.n, args.m)
    elif args.family == "su2-4":
        datum = catalog.su2_4_family(
            args.nu1, args.nu2, zeta(3, args.theta2), zeta(8, args.theta3)
        )
    else:
        raise SchemaViolation(f"unknown family {args.family}")
    if args.out:
        save(datum, args.out)
        print(args.out)
    else:
        _print_json(datum.to_json())
    return EXIT_OK


def _cmd_classify_rank5(args) -> int:
    report = rank5_suite()
    if args.json:
        _print_json(report.to_json())
    else:
        print(report.format_table())
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_equiv(args) -> int:
    f1 = verlinde_fusion(load(args.first))
    f2 = verlinde_fusion(load(args.second))
    witness = grothendieck_equiv(f1, f2)
    if args.json:
        _print_json(
            {"schema": 1, "equivalent": witness is not None,
             "witness": list(witness) if witness else None}
        )
    elif witness is None:
        print("inequivalent")
    else:
        print(f"witness: {list(witness)}")
    return EXIT_OK if witness is not None else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddata",
        description="Exact admissibility and classification checks for modular data",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the seven admissibility conditions")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fusion", help="print the Verlinde fusion matrices")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("galois", help="print the Galois profile")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("rep", help="canonical SL(2,Z) lift: level, parity, spectrum")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("levels", help="admissible levels for a Galois shape")
    p.add_argument("shape", help='e.g. "p=3,m=1,r=1" or "multiquadratic,m=2"')
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("catalog", help="emit a catalog datum as JSON")
    p.add_argument(
        "family", choices=["su2-odd-mod2", "pointed", "su2-4", "golden"]
    )
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--conj", type=int, default=1)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=1)
    p.add_argument("--theta2", type=int, default=1, help="theta2 = zeta_3^this")
    p.add_argument("--theta3", type=int, default=3, help="theta3 = zeta_8^this")
    p.add_argument("--out", help="output path (golden: output directory)")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("classify-rank5", help="run the rank-5 verification suite")
    p.set_defaults(func=_cmd_classify_rank5)

    p = sub.add_parser("equiv", help="Grothendieck equivalence of two datum files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_equiv)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (
        FusionComputationError,
        NotModularRepresentation,
        NotGaloisStable,
        NotGaloisSymmetric,
    ) as exc:
        print(f"predicate failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, SchemaViolation, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
