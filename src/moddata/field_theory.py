"""Modularly admissible cyclotomic extensions, conductors, and the
admissible-level enumeration for prime-power Galois shapes."""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm, prod
from typing import Iterable, Optional

from .cyclotomic import (
    Cyclotomic,
    divisors,
    euler_phi,
    factorize,
    get_order_cap,
    is_prime,
    units_mod,
)
from .modular_data import Record, Verdict

FERMAT_PRIMES = (3, 5, 17, 257, 65537)


def _fixer_of_order_above_2(n: int, values: list[Cyclotomic]) -> Optional[int]:
    """The first unit k mod n, k^2 != 1, whose sigma_k fixes every value."""
    for k in units_mod(n):
        if (k * k) % n != 1 % n and all(v.galois(k) == v for v in values):
            return k
    return None


class BadLevelError(ValueError):
    """A generator does not lie in the requested Q_n."""


def _refuse_2_rank(m: int) -> None:
    # a 2-group with m invariant factors has order >= 2^m, which must divide
    # phi(n) <= cap; compare bit lengths, never forming 2^m
    cap = get_order_cap()
    if m >= cap.bit_length():
        raise ValueError(f"2^{m} exceeds the order cap {cap}: no level is an order")


class GroupShape(Record):
    """An abelian p-group Z/p^r1 x ... x Z/p^rm (invariant factor exponents)."""

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        # for odd p every level is a multiple of each q = 2 p^r + 1 > p (or,
        # for p = 3, of 3^(r+1) > q), so if one exceeds 2 cap^2, the largest
        # order cyclotomic accepts, no level is an order: refuse before any
        # primality test, never forming p^r
        p, bound = self.p, 2 * get_order_cap() ** 2
        if p % 2 == 0 and p != 2:
            raise ValueError(f"p = {p} is not prime")
        if p > bound:
            raise ValueError(f"p = {p} exceeds 2*cap^2 = {bound}: no level is an order")
        if p == 2:
            _refuse_2_rank(len(self.exponents))
        for r in self.exponents if p >= 3 else ():
            q = 2
            for _ in range(r):
                q *= p
                if q + 1 > bound:
                    raise ValueError(f"2*{p}^{r}+1 exceeds 2*cap^2 = {bound}: no level is an order")
        if not is_prime(p):
            raise ValueError(f"p = {self.p} is not prime")
        if not self.exponents or any(r < 1 for r in self.exponents):
            raise ValueError("exponents must be a nonempty tuple of positives")
        if tuple(sorted(self.exponents)) != self.exponents:
            raise ValueError("exponents must be ascending")

    @classmethod
    def elementary2(cls, m: int) -> "GroupShape":
        _refuse_2_rank(m)  # before building the m-tuple
        return cls(2, (1,) * m)

    @classmethod
    def parse(cls, text: str) -> "GroupShape":
        """"p=3,m=1,r=1" (repeat r= for several factors) or "multiquadratic,m=2"."""
        fields = [f.strip() for f in text.split(",") if f.strip()]
        if fields and fields[0] == "multiquadratic":
            opts = dict(f.split("=", 1) for f in fields[1:])
            return cls.elementary2(int(opts.get("m", 1)))
        p = m = None
        rs: list[int] = []
        for f in fields:
            key, _, value = f.partition("=")
            if key == "p":
                p = int(value)
            elif key == "m":
                m = int(value)
            elif key == "r":
                rs.append(int(value))
            else:
                raise ValueError(f"unknown shape field {f!r}")
        if p is None or not rs:
            raise ValueError(f"shape {text!r} needs p= and at least one r=")
        if m is not None and m != len(rs):
            raise ValueError(f"m={m} but {len(rs)} exponents given")
        return cls(p, tuple(sorted(rs)))


def subfield_conductor(generators: Iterable[Cyclotomic]) -> int:
    """Minimal m with every generator inside Q_m."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    return lcm(*(g.conductor for g in gens))


class AdmissibilityFacts(Record):
    ok: bool
    conductor: int
    quotient_divides_24: bool
    gcd_divides_2: bool
    gal_over_conductor_in_z2_cubed: bool
    witness: str = ""


def is_modularly_admissible(
    n: int, k_generators: Iterable[Cyclotomic]
) -> AdmissibilityFacts:
    """Is Q_n multi-quadratic over the field generated by the given elements?

    Also reports the conductor facts n/f | 24, gcd(n/f, f) | 2 and
    Gal(Q_n/Q_f) inside (Z/2Z)^3.
    """
    gens = list(k_generators)
    f = subfield_conductor(gens)
    if n % f != 0:
        raise BadLevelError(f"generators have conductor {f}, not inside Q_{n}")
    fixer = _fixer_of_order_above_2(n, gens)
    witness = "" if fixer is None else f"sigma_{fixer} fixes K but has order > 2"
    quot = n // f
    fixing_f = [k for k in units_mod(n) if k % f == 1]
    elem2 = all((k * k) % n == 1 % n for k in fixing_f) and len(fixing_f) <= 8
    return AdmissibilityFacts(
        fixer is None,
        f,
        24 % quot == 0,
        gcd(quot, f) in (1, 2),
        elem2,
        witness,
    )


def enumerate_levels(shape: GroupShape) -> frozenset[int]:
    """All levels n of modularly admissible Q_n/K for Gal(K/Q) of this shape.

    May be empty: the shape is then not realizable as a Galois group of a
    modularly admissible pair.
    """
    p, rs = shape.p, shape.exponents
    if p > 3:
        if p % 3 != 2 or len(set(rs)) != len(rs) or any(r % 2 == 0 for r in rs):
            return frozenset()
        qs = [2 * p**r + 1 for r in rs]
        if len(set(qs)) != len(qs) or not all(is_prime(q) for q in qs):
            return frozenset()
        core = prod(qs)
        return frozenset(f * core for f in divisors(24))
    if p == 3:
        # q = 2*3^r + 1 grows with r, so the q's repeat where the r's do;
        # count each distinct r once
        out: set[int] = set()
        counts = Counter(rs)
        prime = {r: is_prime(2 * 3**r + 1) for r in counts}
        repeats = len(rs) - len(counts)
        if not repeats and all(prime.values()):
            core = prod(2 * 3**r + 1 for r in counts)
            out.update(f * core for f in divisors(24))
        # one factor Z/3^r takes 3^(r+1) in place of its q; the other q's must
        # be distinct primes, so if some r repeats, only that r may, and only
        # if it repeats just twice
        for r, c in counts.items():
            if repeats == 0 or (repeats == 1 and c == 2):
                others = [s for s in counts if s != r or c > 1]
                if all(prime[s] for s in others):
                    core = 3 ** (r + 1) * prod(2 * 3**s + 1 for s in others)
                    out.update(f * core for f in divisors(8))
        return frozenset(out)
    # p == 2: n = 2^a * distinct Fermat primes, within the order cap
    cap = get_order_cap()
    out = set()
    for mask in range(1 << len(FERMAT_PRIMES)):
        core = prod(
            q for i, q in enumerate(FERMAT_PRIMES) if mask >> i & 1
        )
        a = 0
        while True:
            n = 2**a * core
            if euler_phi(n) > cap:
                break
            out.add(n)
            a += 1
    if set(rs) == {1}:
        out = {n for n in out if 240 % n == 0}
    return frozenset(out)


def odd_prime_constraints(n: int, p: Optional[int] = None) -> Verdict:
    """Constraints on odd primes q | n for an odd-degree subfield: q = 3 mod 4,
    q a simple factor, and q = 2 p^r + 1 (p given, or any prime power)."""
    if n < 1:
        raise ValueError("n must be positive")
    for q, mult in factorize(n).items():
        if q <= 3:
            continue
        if q % 4 != 3:
            return Verdict(False, f"{q} = 1 mod 4")
        if mult > 1:
            return Verdict(False, f"{q}^{mult} is not a simple factor")
        half = (q - 1) // 2
        if p is not None:
            r = 0
            while half % p == 0:
                half //= p
                r += 1
            if half != 1 or r < 1:
                return Verdict(False, f"{q} != 2*{p}^r + 1")
        else:
            fac = factorize(half)
            if len(fac) != 1:
                return Verdict(False, f"({q}-1)/2 is not a prime power")
    return Verdict(True)
