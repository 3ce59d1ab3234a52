"""Rank-5 verification harness: Galois case list, Grothendieck equivalence,
vanishing-sum analysis, and the integral-dimension Diophantine search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from .cyclotomic import Cyclotomic, ONE, ZERO, _numerators_at, is_prime, zeta
from .field_theory import cauchy_prime_support
from .galois import (
    NamedVerdict,
    compose,
    compute_profile,
    exclusion_predicates,
    galois_twist_symmetry,
)
from .modular_data import (
    FusionRules,
    ModularDatum,
    Tensor,
    check_admissible,
    verlinde_fusion,
)
from .sl2z_reps import normalize, spectra_connectivity

Perm = tuple[int, ...]


class TooLargeError(ValueError):
    """Rank beyond the brute-force budget."""


# ---------------------------------------------------------------------------
# rank-5 Galois cases


def _generate(rank: int, gens: Sequence[Perm]) -> frozenset[Perm]:
    identity = tuple(range(rank))
    group = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return frozenset(group)


def rank5_galois_cases() -> list[frozenset[Perm]]:
    """The seven candidate Galois groups at rank 5, as explicit subgroups."""
    c01 = (1, 0, 2, 3, 4)
    c012 = (1, 2, 0, 3, 4)
    c0123 = (1, 2, 3, 0, 4)
    c01234 = (1, 2, 3, 4, 0)
    d0123 = (1, 0, 3, 2, 4)  # (0 1)(2 3)
    t23 = (0, 1, 3, 2, 4)  # (2 3)
    k2 = (2, 3, 0, 1, 4)  # (0 2)(1 3)
    return [
        _generate(5, [c01]),
        _generate(5, [c012]),
        _generate(5, [c0123]),
        _generate(5, [c01234]),
        _generate(5, [d0123]),
        _generate(5, [c01, t23]),
        _generate(5, [d0123, k2]),
    ]


def subgroups_conjugate(h1: Iterable[Perm], h2: Iterable[Perm], rank: int = 5) -> bool:
    """Brute-force conjugacy of two subgroups inside Sym(rank)."""
    set1, set2 = frozenset(h1), frozenset(h2)
    if len(set1) != len(set2):
        return False
    for g in permutations(range(rank)):
        ginv = [0] * rank
        for i, gi in enumerate(g):
            ginv[gi] = i
        conj = frozenset(
            tuple(g[p[ginv[i]]] for i in range(rank)) for p in set1
        )
        if conj == set2:
            return True
    return False


def in_rank5_cases(image: Iterable[Perm]) -> bool:
    """Membership of a Galois image in the case list, up to relabeling."""
    return any(subgroups_conjugate(image, case) for case in rank5_galois_cases())


# ---------------------------------------------------------------------------
# Grothendieck equivalence


def _reindexed(tensor: Tensor, p: Sequence[int]) -> Tensor:
    """The tensor X with X[i][j][k] = tensor[p[i]][p[j]][p[k]]."""
    return tuple(tuple(tuple(tensor[a][b][c] for c in p) for b in p) for a in p)


def grothendieck_equiv(f1: FusionRules, f2: FusionRules) -> Optional[Perm]:
    """A unit-fixing relabeling carrying one fusion tensor to the other."""
    if f1.rank != f2.rank:
        return None
    if f1.rank > 8:
        raise TooLargeError("brute-force budget is rank <= 8")
    for rest in permutations(range(1, f1.rank)):
        perm = (0,) + rest
        if _reindexed(f2.tensor, perm) == f1.tensor:
            return perm
    return None


def relabel_fusion(f: FusionRules, perm: Perm) -> FusionRules:
    """The fusion rules with label i renamed perm[i] (perm[0] = 0)."""
    r = f.rank
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i
    dual = tuple(perm[f.dual[inv[i]]] for i in range(r))
    return FusionRules(r, _reindexed(f.tensor, inv), dual)


# ---------------------------------------------------------------------------
# vanishing sums a + b*i + c_alpha*alpha + c_beta*beta = 0


@dataclass(frozen=True)
class VanishingSumReport:
    sum_is_zero: bool
    conclusions_hold: Optional[bool]
    detail: str = ""


def vanishing_sum_check(
    a: int,
    b: int,
    c_alpha: int,
    c_beta: int,
    alpha: Cyclotomic,
    beta: Cyclotomic,
) -> VanishingSumReport:
    """For a zero sum with nonzero integer coefficients, assert the forced
    shape alpha = +-1, beta = +-i, a + alpha c_alpha = 0, b i + beta c_beta = 0."""
    orda, ordb = alpha.root_of_unity_order(), beta.root_of_unity_order()
    if orda is None or ordb is None:
        raise ValueError("alpha, beta must be roots of unity")
    if orda > ordb:
        raise ValueError("requires ord(alpha) <= ord(beta)")
    if not all((a, b, c_alpha, c_beta)):
        raise ValueError("coefficients must be nonzero")
    total = a + b * zeta(4) + c_alpha * alpha + c_beta * beta
    if total:
        return VanishingSumReport(False, None, "sum is nonzero")
    checks = [
        alpha == ONE or alpha == -ONE,
        beta == zeta(4) or beta == -zeta(4),
        a + alpha * c_alpha == ZERO,
        b * zeta(4) + beta * c_beta == ZERO,
    ]
    detail = "" if all(checks) else f"failed clauses {[i for i, c in enumerate(checks) if not c]}"
    return VanishingSumReport(True, all(checks), detail)


def _integer_kernel(columns: list[Cyclotomic]) -> list[tuple[int, ...]]:
    """Basis of {x in Q^m : sum x_c columns[c] = 0}: one primitive integer
    vector per free column, positive there and zero on the other free columns.

    Each row of the system is one exponent on the power basis of the lcm
    order, over the columns brought to a common denominator (a uniform
    scaling, so the kernel is unchanged).  Only the distinct nonzero rows
    are kept, each once up to sign and content, and they are eliminated by
    fraction-free Gauss-Jordan, each updated row divided by its content.
    """
    order = lcm(*(col.order for col in columns))
    den = lcm(*(col._den for col in columns))
    m = len(columns)
    rows: dict[int, list[int]] = {}
    for c, col in enumerate(columns):
        lifted, col_den = _numerators_at(col, order)
        scale = den // col_den
        for e, q in lifted.items():
            if e not in rows:
                rows[e] = [0] * m
            rows[e][c] = q * scale
    distinct = {}
    for row in rows.values():
        g = gcd(*row)
        if next(v for v in row if v) < 0:
            g = -g
        distinct[tuple(v // g for v in row)] = None
    work = [list(row) for row in distinct]
    pivots: list[int] = []
    for col in range(m):
        sel = next((r for r in range(len(pivots), len(work)) if work[r][col]), None)
        if sel is None:
            continue
        piv_row = len(pivots)
        work[piv_row], work[sel] = work[sel], work[piv_row]
        pivot = work[piv_row]
        a = pivot[col]
        for r, row in enumerate(work):
            b = row[col]
            if r != piv_row and b:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                work[r] = [v // g for v in row] if g else row
        pivots.append(col)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        # pivot row r reads a_r x_(pivots[r]) + work[r][fc] x_fc = 0
        t = lcm(*(abs(work[r][pc]) for r, pc in enumerate(pivots)))
        vec = [0] * m
        vec[fc] = t
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc] * t // work[r][pc]
        g = gcd(*vec)
        basis.append(tuple(v // g for v in vec))
    return basis


def _all_nonzero_solution_exists(columns: list[Cyclotomic]) -> bool:
    """Is there a rational relation with every coefficient nonzero?

    The kernel is not a finite union of proper subspaces over Q, so this
    holds iff no coordinate vanishes identically on the kernel.
    """
    basis = _integer_kernel(columns)
    if not basis:
        return False
    return all(any(vec[c] for vec in basis) for c in range(len(columns)))


def vanishing_sum_scan(max_order: int = 60) -> list[dict]:
    """Exhaustive scan over root pairs of order <= max_order for violations
    of the vanishing-sum lemma; the expected result is the empty list.

    A pair violates iff some relation with all four coefficients nonzero
    exists while (alpha, beta) is not of the forced (+-1, +-i) shape.

    Whether such a relation exists is a Galois invariant of the pair:
    sigma_k carries a + b*i + c*alpha + d*beta = 0 to
    a + (+-b)*i + c*alpha^k + d*beta^k = 0, since sigma_k(i) = +-i, with
    the same coefficients up to sign. For alpha = zeta_m^ea and
    beta = zeta_n^eb, the orbits of (ea, eb) -> (k*ea, k*eb) over the units
    k are told apart by eb * ea^-1 mod gcd(m, n) (by the Chinese remainder
    theorem), so there are phi(gcd(m, n)) of them. The kernel runs once per
    orbit, on the first pair met, and every other pair reuses its verdict.
    Pairs are visited, and counterexamples listed, in the order of
    (ord_alpha, e_alpha, ord_beta, e_beta).

    The scan is integer-only: each root is built in canonical form by
    zeta(), and the kernel is fraction-free elimination on the distinct
    rows of the four columns, up to sign and content. Below order 105 a
    root has power-basis entries in {-1, 0, 1}, so at most 40 rows remain.
    """

    def conductor(m: int) -> int:
        return m // 2 if m % 4 == 2 else m

    i_root = zeta(4)
    root = cache(zeta)  # each root is built once per scan, as a representative or a hit
    verdicts: dict[tuple[int, int, int], bool] = {}
    counterexamples = []
    for m in range(1, max_order + 1):
        # skip the forced shape (+-1, +-i); an all-nonzero relation needs
        # beta in Q(i, alpha) and alpha in Q(i, beta)
        partners = [
            (n, gcd(m, n), [e for e in range(n) if gcd(e, n) == 1])
            for n in range(m, max_order + 1)
            if not (m <= 2 and n == 4)
            and lcm(4, conductor(m)) % conductor(n) == 0
            and lcm(4, conductor(n)) % conductor(m) == 0
        ]
        for ea in (e for e in range(m) if gcd(e, m) == 1):
            for n, g, units in partners:
                ea_inv = pow(ea, -1, g)
                for eb in units:
                    key = (m, n, eb * ea_inv % g)
                    hit = verdicts.get(key)
                    if hit is None:
                        hit = verdicts[key] = _all_nonzero_solution_exists(
                            [ONE, i_root, root(m, ea), root(n, eb)]
                        )
                    if hit:
                        counterexamples.append(
                            {
                                "alpha": root(m, ea),
                                "beta": root(n, eb),
                                "ord_alpha": m,
                                "ord_beta": n,
                            }
                        )
    return counterexamples


# ---------------------------------------------------------------------------
# integral dimension search


@dataclass(frozen=True)
class DimensionSearch:
    survivors: tuple[tuple[int, ...], ...]
    excluded_by_modulus: Optional[int] = None


def _smooth_numbers(primes: frozenset[int], bound: int) -> list[int]:
    out = [1]
    for p in sorted(primes):
        out = [v * p**k for v in out for k in range(0, _log_cap(p, bound) + 1)]
    return sorted(v for v in out if v <= bound)


def _log_cap(p: int, bound: int) -> int:
    k = 0
    while p ** (k + 1) <= bound:
        k += 1
    return k


def _smooth_residues(primes: frozenset[int], m: int) -> frozenset[int]:
    closure = {1 % m}
    frontier = [1 % m]
    while frontier:
        cur = frontier.pop()
        for p in primes:
            nxt = cur * p % m
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return frozenset(closure)


def integral_dimension_search(
    rank: int,
    orbit_multiplicities: Sequence[int],
    prime_set: Iterable[int],
    modulus_filters: Optional[Sequence[int]] = None,
    bound: int = 10_000,
) -> DimensionSearch:
    """Integer dimension vectors constant on the prescribed orbits, with all
    prime factors of the d_i and of D^2 = sum mult_i d_i^2 inside prime_set.

    A congruence-exclusion pass runs first (complete for all magnitudes); a
    bounded smooth-number enumeration returns the survivors otherwise.  A
    nontrivial odd-size orbit forces D itself to be a (smooth) integer, as
    in the odd-order Galois argument.
    """
    sizes = tuple(orbit_multiplicities)
    if sum(sizes) != rank:
        raise ValueError("orbit multiplicities must sum to the rank")
    if sizes[0] != 1:
        raise ValueError("the unit's orbit (first entry) must be a singleton")
    primes = frozenset(prime_set)
    if not all(is_prime(p) for p in primes):
        raise ValueError("prime_set must contain primes")
    d_integer = any(sz > 1 and sz % 2 == 1 for sz in sizes)
    if modulus_filters is None:
        modulus_filters = [
            sz for sz in dict.fromkeys(sizes) if sz > 2 and is_prime(sz) and sz not in primes
        ]
    free = sizes[1:]
    for m in modulus_filters:
        res = _smooth_residues(primes, m)
        sq = frozenset(v * v % m for v in res)
        lhs = sq if d_integer else res
        feasible = False
        for combo in product(sq, repeat=len(free)):
            rhs = (1 + sum(s * c for s, c in zip(free, combo))) % m
            if rhs in lhs:
                feasible = True
                break
        if not feasible:
            return DimensionSearch((), excluded_by_modulus=m)
    values = _smooth_numbers(primes, bound)
    survivors = []
    for combo in product(values, repeat=len(free)):
        total = 1 + sum(s * c * c for s, c in zip(free, combo))
        if not _is_smooth(total, primes):
            continue
        if d_integer and not _is_perfect_square(total):
            continue
        vector = (1,) + tuple(
            v for sz, v in zip(free, combo) for _ in range(sz)
        )
        survivors.append(vector)
    return DimensionSearch(tuple(survivors))


def _is_smooth(n: int, primes: frozenset[int]) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# the rank-5 suite


@dataclass(frozen=True)
class DatumReport:
    name: str
    fusion_class: str
    checks: tuple[NamedVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass(frozen=True)
class Rank5Report:
    entries: tuple[DatumReport, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format_table(self) -> str:
        lines = []
        for entry in self.entries:
            lines.append(f"{entry.name}  ->  fusion class: {entry.fusion_class}")
            for c in entry.checks:
                tag = "PASS" if c.ok else "FAIL"
                extra = f"  [{c.witness}]" if c.witness and not c.ok else ""
                lines.append(f"    {c.name:<34} {tag}{extra}")
        lines.extend(f"note: {n}" for n in self.notes)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "passed": self.passed,
            "notes": list(self.notes),
            "entries": [
                {
                    "name": e.name,
                    "fusion_class": e.fusion_class,
                    "checks": [
                        {"name": c.name, "passed": c.ok, "witness": c.witness}
                        for c in e.checks
                    ],
                }
                for e in self.entries
            ],
        }


_FUSION_CLASSES = (
    ("SU(2)_4", lambda: verlinde_fusion(su2_4_family_all()[0])),
    ("SU(2)_9/Z_2", lambda: verlinde_fusion(su2_odd_mod2(5))),
    ("SU(5)_1", lambda: verlinde_fusion(pointed_zn(5, 1))),
)


def classify_fusion(fusion: FusionRules) -> str:
    for name, reference in _FUSION_CLASSES:
        if grothendieck_equiv(fusion, reference()) is not None:
            return name
    return "unclassified"


def rank5_suite(data: Optional[Sequence[tuple[str, ModularDatum]]] = None) -> Rank5Report:
    """Run the full predicate battery over the rank-5 catalog."""
    if data is None:
        data = rank5_catalog()
    entries = []
    for name, datum in data:
        checks: list[NamedVerdict] = []
        fusion_class = "n/a"
        report = check_admissible(datum)
        checks.append(
            NamedVerdict(
                "admissible (7 conditions)",
                report.passed,
                "; ".join(f"({c.index}) {c.witness}" for c in report.failures()),
            )
        )
        profile = report.profile
        if profile is None:
            try:
                profile = compute_profile(datum)
            except Exception as exc:
                checks.append(NamedVerdict("Galois profile", False, str(exc)))
        if profile is not None:
            checks.append(
                NamedVerdict(
                    "Galois case membership",
                    in_rank5_cases(profile.image()),
                    f"image {sorted(profile.image())}",
                )
            )
            for verdict in exclusion_predicates(datum, profile):
                checks.append(verdict)
        try:
            fusion = verlinde_fusion(datum)
            fusion_class = classify_fusion(fusion)
            checks.append(
                NamedVerdict(
                    "fusion class identified", fusion_class != "unclassified", fusion_class
                )
            )
        except Exception as exc:
            checks.append(NamedVerdict("fusion computed", False, str(exc)))
        try:
            rep = normalize(datum)
            checks.append(NamedVerdict("canonical lift relations", True))
            twist = galois_twist_symmetry(rep)
            checks.append(
                NamedVerdict("Galois twist symmetry", twist.ok, str(twist.witness or ""))
            )
            conn = spectra_connectivity(rep)
            checks.append(
                NamedVerdict("spectra connectivity", conn.ok, str(conn.witness or ""))
            )
            N, n = datum.ord_t, rep.level
            checks.append(
                NamedVerdict(
                    "level divisibility N | n | 12N",
                    n % N == 0 and (12 * N) % n == 0,
                    f"N={N}, n={n}",
                )
            )
        except Exception as exc:
            checks.append(NamedVerdict("canonical lift relations", False, str(exc)))
        support = cauchy_prime_support(datum)
        checks.append(
            NamedVerdict(
                "Cauchy prime support",
                support.ok,
                f"{sorted(support.norm_primes)} vs {sorted(support.torder_primes)}",
            )
        )
        entries.append(DatumReport(name, fusion_class, tuple(checks)))
    notes = ("SU(3)_4/Z_3: not instantiated (no explicit matrices available)",)
    return Rank5Report(tuple(entries), notes)
