"""Rank-5 verification harness: Galois case list, Grothendieck equivalence,
vanishing-sum analysis, and the integral-dimension Diophantine search."""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .catalog import (
    pointed_zn,
    rank5_catalog,
    su2_4_family,
    su2_4_parameter_tuples,
    su2_odd_mod2,
)
from .cyclotomic import Cyclotomic, ONE, ZERO, _monomial, is_prime, zeta
from .galois import compute_profile, exclusion_predicates, galois_twist_symmetry
from .modular_data import (
    FusionRules,
    ModularDatum,
    Perm,
    Record,
    Tensor,
    Verdict,
    _closure,
    _table_line,
    _verdict_json,
    cauchy_prime_support,
    check_admissible,
    compose,
    verlinde_fusion,
)
from .sl2z_reps import normalize, spectra_connectivity


class TooLargeError(ValueError):
    """Rank beyond the brute-force budget."""


# ---------------------------------------------------------------------------
# rank-5 Galois cases


def rank5_galois_cases() -> list[frozenset[Perm]]:
    """The seven candidate Galois groups at rank 5, as explicit subgroups."""
    c01 = (1, 0, 2, 3, 4)
    c012 = (1, 2, 0, 3, 4)
    c0123 = (1, 2, 3, 0, 4)
    c01234 = (1, 2, 3, 4, 0)
    d0123 = (1, 0, 3, 2, 4)  # (0 1)(2 3)
    t23 = (0, 1, 3, 2, 4)  # (2 3)
    k2 = (2, 3, 0, 1, 4)  # (0 2)(1 3)
    identity = tuple(range(5))
    gen_sets = ([c01], [c012], [c0123], [c01234], [d0123], [c01, t23], [d0123, k2])
    return [_closure(identity, compose, gens) for gens in gen_sets]


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


# ---------------------------------------------------------------------------
# vanishing sums a + b*i + c_alpha*alpha + c_beta*beta = 0


class VanishingSumReport(Record):
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


def _integer_kernel(columns: Sequence[Mapping[int, int]]) -> list[tuple[int, ...]]:
    """Basis of {x in Q^m : sum x_c columns[c] = 0} for integer columns on
    one power basis (exponent -> nonzero coefficient, as
    `_reduce_exponents` gives them): one primitive integer vector per free
    column, positive there and zero on the other free columns.

    Each row of the system is one exponent.  A zero coefficient counts as an
    absent one.  Only the distinct nonzero rows are kept, each once up to
    sign and content, and they are eliminated by fraction-free Gauss-Jordan,
    each updated row divided by its content.
    """
    m = len(columns)
    rows: dict[int, list[int]] = {}
    for c, col in enumerate(columns):
        for e, q in col.items():
            if q:
                if e not in rows:
                    rows[e] = [0] * m
                rows[e][c] = q
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


def _all_nonzero_solution_exists(columns: Sequence[Mapping[int, int]]) -> bool:
    """Is there a rational relation with every coefficient nonzero among
    integer columns on one power basis, as `_integer_kernel` takes them?

    The kernel is not a finite union of proper subspaces over Q, so this
    holds iff no coordinate vanishes identically on the kernel.

    Row e reads sum_c columns[c][e] x_c = 0.  If a single column c has a
    nonzero entry at e, that row forces x_c = 0 on the whole kernel, so the
    answer is no.  One pass over the nonzero exponents looks for such a row,
    and `_integer_kernel` runs only when every row has two or more columns.
    """
    seen: set[int] = set()
    shared: set[int] = set()
    for col in columns:
        for e, q in col.items():
            if q:
                (shared if e in seen else seen).add(e)
    if len(shared) < len(seen):
        return False
    basis = _integer_kernel(columns)
    if not basis:
        return False
    return all(any(vec[c] for vec in basis) for c in range(len(columns)))


def _pair_class(m: int, ea: int, n: int, eb: int) -> tuple[int, int, int]:
    """The key of the class of (zeta_m^ea, zeta_n^eb) under Galois, signs and
    swap: the Galois orbit of its squares, unordered (see
    `vanishing_sum_scan`)."""
    m2, n2 = m // gcd(m, 2), n // gcd(n, 2)
    a2, b2 = 2 * ea // gcd(m, 2) % m2, 2 * eb // gcd(n, 2) % n2
    g = gcd(m2, n2)
    r = b2 * pow(a2, -1, g) % g
    if m2 < n2:
        return (m2, n2, r)
    r_inv = pow(r, -1, g)
    return (n2, m2, r_inv) if m2 > n2 else (m2, m2, min(r, r_inv))


def vanishing_sum_scan(max_order: int = 60) -> list[dict]:
    """Exhaustive scan over root pairs of order <= max_order for violations
    of the vanishing-sum lemma; the expected result is the empty list.

    A pair violates iff some relation with all four coefficients nonzero
    exists while (alpha, beta) is not of the forced (+-1, +-i) shape.

    Whether such a relation exists is constant on the class of a pair under
    Galois, signs and swap: sigma_k carries a + b*i + c*alpha + d*beta = 0 to
    a + (+-b)*i + c*alpha^k + d*beta^k = 0, since sigma_k(i) = +-i; the
    relation for (alpha, beta) is one for (-alpha, beta) with c -> -c, and
    one for (beta, alpha) with c <-> d; every coefficient stays nonzero.
    Two pairs differ only by signs iff their squares agree, so a class is
    the Galois orbit of (alpha^2, beta^2), taken unordered.  For
    alpha = zeta_m^ea, alpha^2 = zeta_m2^a2 with m2 = m / gcd(m, 2) and
    a2 = 2*ea / gcd(m, 2) mod m2; likewise beta^2 = zeta_n2^b2.  By the
    Chinese remainder theorem the orbits of ordered pairs of roots of orders
    (m2, n2) under the units are told apart by r = b2 * a2^-1 mod
    g = gcd(m2, n2), and swapping the pair inverts r.  So `_pair_class`
    keys a class by (m2, n2, r) when m2 < n2, by (n2, m2, r^-1) when
    m2 > n2 and by (m2, m2, min(r, r^-1)) when they are equal.

    The filters below depend only on the orders (m, n), and every pair is
    Galois-conjugate to one with ea = 1 (take k = ea^-1 mod m, lifted to a
    unit mod lcm(m, n)).  So the verdict is read once per class, on the
    first pair (zeta_m, zeta_n^eb) met, before any pair is visited.  Only if
    some class hits are the pairs walked, in the order of
    (ord_alpha, e_alpha, ord_beta, e_beta), and those of hitting classes
    listed.

    The scan is integer-only. The four columns are zeta_L^j on the power
    basis of Q_L, L = lcm(4, m, n), for j = 0, L/4, L/m and eb*L/n, each
    read by `_monomial` off the table of L's radical (Q_L sits linearly in
    any larger common order, so the verdict is the same).  A power-basis exponent that only one column
    reaches forces that coefficient to 0, so the class has no hit; the
    Gauss-Jordan of `_integer_kernel` runs only when every exponent is
    shared.  Up to order 96 every class has such an exponent, so the scan
    eliminates nothing.
    """

    def conductor(m: int) -> int:
        return m // 2 if m % 4 == 2 else m

    units = [[e for e in range(n) if gcd(e, n) == 1] for n in range(max_order + 1)]
    # skip the forced shape (+-1, +-i); an all-nonzero relation needs
    # beta in Q(i, alpha) and alpha in Q(i, beta)
    partners = {
        m: [
            n
            for n in range(m, max_order + 1)
            if not (m <= 2 and n == 4)
            and lcm(4, conductor(m)) % conductor(n) == 0
            and lcm(4, conductor(n)) % conductor(m) == 0
        ]
        for m in range(1, max_order + 1)
    }
    verdicts: dict[tuple[int, int, int], bool] = {}
    for m, ns in partners.items():
        for n in ns:
            order = lcm(4, m, n)
            for eb in units[n]:
                key = _pair_class(m, 1, n, eb)
                if key not in verdicts:
                    js = (0, order // 4, order // m % order, eb * order // n)
                    verdicts[key] = _all_nonzero_solution_exists([_monomial(order, j) for j in js])
    if not any(verdicts.values()):
        return []
    root = cache(zeta)  # each root of a listed pair is built once per scan
    return [
        {"alpha": root(m, ea), "beta": root(n, eb), "ord_alpha": m, "ord_beta": n}
        for m, ns in partners.items()
        for ea in units[m]
        for n in ns
        for eb in units[n]
        if verdicts[_pair_class(m, ea, n, eb)]
    ]


# ---------------------------------------------------------------------------
# integral dimension search


class DimensionSearch(Record):
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


def integral_dimension_search(
    rank: int,
    orbit_multiplicities: Sequence[int],
    prime_set: Iterable[int],
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
    if not sizes or sizes[0] != 1:
        raise ValueError("the unit's orbit (first entry) must be a singleton")
    primes = frozenset(prime_set)
    if not all(is_prime(p) for p in primes):
        raise ValueError("prime_set must contain primes")
    d_integer = any(sz > 1 and sz % 2 == 1 for sz in sizes)
    moduli = [
        sz for sz in dict.fromkeys(sizes) if sz > 2 and is_prime(sz) and sz not in primes
    ]
    free = sizes[1:]
    for m in moduli:
        res = _closure(1 % m, lambda c, p: c * p % m, primes)
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


class DatumReport(Record):
    name: str
    fusion_class: str
    checks: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


class Rank5Report(Record):
    entries: tuple[DatumReport, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format_table(self) -> str:
        lines = []
        for entry in self.entries:
            lines.append(f"{entry.name}  ->  fusion class: {entry.fusion_class}")
            lines.extend(f"    {_table_line(c, 34)}" for c in entry.checks)
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
                    "checks": [_verdict_json(c) for c in e.checks],
                }
                for e in self.entries
            ],
        }


_FUSION_CLASSES = (
    ("SU(2)_4", lambda: verlinde_fusion(su2_4_family(*su2_4_parameter_tuples()[0]))),
    ("SU(2)_9/Z_2", lambda: verlinde_fusion(su2_odd_mod2(5))),
    ("SU(5)_1", lambda: verlinde_fusion(pointed_zn(5, 1))),
)


def classify_fusion(fusion: FusionRules) -> str:
    for name, reference in _FUSION_CLASSES:
        if grothendieck_equiv(fusion, reference()) is not None:
            return name
    return "unclassified"


def rank5_suite(data: Optional[Sequence[tuple[str, ModularDatum]]] = None) -> Rank5Report:
    """Run the full predicate battery over the rank-5 catalog.

    A package error on bad data, a ValueError or an ArithmeticError, becomes
    a FAIL row; any other exception propagates.
    """
    if data is None:
        data = rank5_catalog()
    entries = []
    for name, datum in data:
        fusion_class = "n/a"
        report = check_admissible(datum)
        checks = [
            Verdict(
                report.passed,
                "; ".join(f"({i}) {c.witness}" for i, c in report.failures()),
                "admissible (7 conditions)",
            )
        ]
        try:
            profile = compute_profile(datum)
        except (ValueError, ArithmeticError) as exc:
            checks.append(Verdict(False, str(exc), "Galois profile"))
        else:
            checks.append(
                Verdict(
                    in_rank5_cases(profile.image()),
                    f"image {sorted(profile.image())}",
                    "Galois case membership",
                )
            )
            checks.extend(exclusion_predicates(datum, profile))
        try:
            fusion_class = classify_fusion(verlinde_fusion(datum))
            checks.append(
                Verdict(fusion_class != "unclassified", fusion_class, "fusion class identified")
            )
        except (ValueError, ArithmeticError) as exc:
            checks.append(Verdict(False, str(exc), "fusion computed"))
        try:
            rep = normalize(datum)
            checks.append(Verdict(True, "", "canonical lift relations"))
            twist = galois_twist_symmetry(rep)
            checks.append(Verdict(twist.ok, str(twist.witness or ""), "Galois twist symmetry"))
            conn = spectra_connectivity(rep)
            checks.append(Verdict(conn.ok, str(conn.witness or ""), "spectra connectivity"))
            N, n = datum.ord_t, rep.level
            checks.append(
                Verdict(
                    n % N == 0 and (12 * N) % n == 0,
                    f"N={N}, n={n}",
                    "level divisibility N | n | 12N",
                )
            )
        except (ValueError, ArithmeticError) as exc:
            checks.append(Verdict(False, str(exc), "canonical lift relations"))
        support = cauchy_prime_support(datum)
        checks.append(
            Verdict(
                support.ok,
                f"{sorted(support.norm_primes)} vs {sorted(support.torder_primes)}",
                "Cauchy prime support",
            )
        )
        entries.append(DatumReport(name, fusion_class, tuple(checks)))
    notes = ("SU(3)_4/Z_3: not instantiated (no explicit matrices available)",)
    return Rank5Report(tuple(entries), notes)
