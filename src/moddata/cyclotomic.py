"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis {zeta_n^e : 0 <= e < phi(n)} as
integer numerators over one positive common denominator, reduced modulo the
n-th cyclotomic polynomial, pushed down to their conductor and divided by
the gcd of denominator and numerators.  As a consequence two values are
equal iff their (order, numerators, denominator) triples are identical, and
the stored order is never congruent to 2 mod 4.  Fraction appears only at
the boundary: construction, items(), JSON, printing, as_rational(),
complex_eval() and the hash of a non-integer rational.  One integer
fixed-point evaluation with a proven error bound serves both numeric needs:
real_sign decides the sign of a real value exactly, and complex_eval rounds
each part of a value correctly to a double for display.

Values are immutable, so instances can be shared freely between threads.
The phi, prime and reduction tables are lru_cache functions of their
arguments: two threads that miss at once compute equal values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import copysign, gcd, inf, lcm, nextafter, prod
from typing import Iterable, Mapping, Optional, Union

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Cyclotomic"]

_DEFAULT_ORDER_CAP = 2000
_order_cap = _DEFAULT_ORDER_CAP
# cache_clear of each cache whose results were computed under the cap in
# force; set_order_cap clears them when the cap changes
_cap_caches: list = []
# an exponent key of a JSON value: an optional minus sign and ASCII digits;
# a coefficient: such an integer, or one over ASCII digits
_EXPONENT_KEY = re.compile(r"-?[0-9]+").fullmatch
_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?").fullmatch


class InvalidOrderError(ValueError):
    """Raised for order 0 or an order whose phi(n) exceeds the cap."""


class NotAUnitError(ValueError):
    """Raised when a Galois index is not coprime to the order."""


def set_order_cap(cap: int) -> None:
    """Set the maximal allowed phi(n) (cost guard for Phi_n reduction).  A
    change forgets every result cached under the old cap."""
    global _order_cap
    if cap < 1:
        raise ValueError("cap must be positive")
    if cap != _order_cap:
        for clear in _cap_caches:
            clear()
    _order_cap = cap


def get_order_cap() -> int:
    return _order_cap


# ---------------------------------------------------------------------------
# elementary number theory helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# Miller-Rabin to the bases 2..41 is exact below _MR_LIMIT, the least strong
# pseudoprime to all thirteen of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality, decided exactly: Miller-Rabin to the bases 2..41 below
    _MR_LIMIT, trial division above it."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        return factorize(n) == {n: 1}
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def units_mod(n: int) -> list[int]:
    """The unit group (Z/nZ)^x as a sorted list of representatives."""
    return [k for k in range(1, max(n, 2)) if gcd(k, n) == 1] or [1]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction tables

@lru_cache(maxsize=None)
def _order_info(n: int) -> tuple[int, tuple[int, ...]]:
    """(phi(n), the primes dividing n), from one factorization of n."""
    fac = factorize(n)
    return prod((p - 1) * p ** (e - 1) for p, e in fac.items()), tuple(fac)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # little-endian integer polynomials, den monic; division is exact
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _cyclotomic_poly_squarefree(r: int) -> list[int]:
    """Phi_r for squarefree r, one exact division per prime p | r:
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for p not dividing m, from Phi_1 = x - 1."""
    f = [-1, 1]
    for p in factorize(r):
        f_of_xp = [0] * ((len(f) - 1) * p + 1)
        f_of_xp[::p] = f
        f = _poly_div_exact(f_of_xp, f)
    return f


@lru_cache(maxsize=None)
def _radical_rows(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row q - phi(r) holds the nonzero (j, c) of y^q mod Phi_r(y), j ascending,
    for squarefree r and phi(r) <= q < r: y times the row before, with
    y^phi(r) folded in, so the build touches only nonzero entries."""
    base = _cyclotomic_poly_squarefree(r)
    deg = len(base) - 1
    top = cur = tuple((j, -c) for j, c in enumerate(base[:-1]) if c)  # y^deg
    rows = []
    for _ in range(deg, r):
        rows.append(cur)
        last, lead = cur[-1]
        if last < deg - 1:
            cur = tuple([(j + 1, c) for j, c in cur])
            continue
        acc = {j + 1: c for j, c in cur[:-1]}
        for j, c in top:
            acc[j] = acc.get(j, 0) + lead * c
        cur = tuple(sorted([(j, c) for j, c in acc.items() if c]))
    return tuple(rows)


@lru_cache(maxsize=None)
def _row_index(r: int) -> dict[tuple[tuple[int, int], ...], int]:
    """q for each row of _radical_rows(r); the y^q, q < r, are distinct."""
    return {row: q for q, row in enumerate(_radical_rows(r), _order_info(r)[0])}


@lru_cache(maxsize=None)
def _embedding(n: int, i: int) -> tuple[int, tuple[int, ...]]:
    """(ell, powers) for the i-th prime ell = 1 mod n below 2^62, counting
    down, with powers[e] = g^e mod ell for g = b^((ell-1)/n), b >= 2 the
    least base that gives g the order n.  zeta_n -> g is a ring map
    Z[zeta_n] -> F_ell whose kernel is a prime of norm ell.  Entry i starts
    below entry i - 1, and callers walk i upward, so a miss recurses once."""
    ell = _embedding(n, i - 1)[0] - n if i else ((1 << 62) - 1) // n * n + 1
    while not is_prime(ell):
        ell -= n
    qs = _order_info(n)[1]
    g = next(
        g for g in (pow(b, (ell - 1) // n, ell) for b in range(2, ell))
        if all(pow(g, n // q, ell) != 1 for q in qs)
    )
    powers = [1] * n
    for e in range(1, n):
        powers[e] = powers[e - 1] * g % ell
    return ell, tuple(powers)


def _galois_embedding(emb: tuple[int, tuple[int, ...]], k: int) -> tuple[int, tuple[int, ...]]:
    """The embedding of x -> sigma_k(x) from emb = (ell, powers) of order n:
    sigma_k(x) at zeta_n -> g is x at zeta_n -> g^k.  k = -1 conjugates."""
    ell, powers = emb
    n = len(powers)
    return ell, tuple(powers[e * k % n] for e in range(n))


def _within_cap(n: int) -> bool:
    # phi(n) >= sqrt(n/2), so a larger n is refused without factoring it
    return n <= 2 * _order_cap**2 and _order_info(n)[0] <= _order_cap


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidOrderError(f"invalid order {n}")
    if not _within_cap(n):
        raise InvalidOrderError(f"phi({n}) exceeds the order cap {_order_cap}")


def _reduce_exponents(n: int, raw: Mapping[int, RationalLike]) -> dict[int, RationalLike]:
    """Fold exponents mod n, then mod Phi_n, dropping zero coefficients.

    Integer coefficients stay integers, Fraction ones stay Fractions."""
    deg = _order_info(n)[0]
    out: dict[int, RationalLike] = {}
    high: dict[int, RationalLike] = {}
    for e, c in raw.items():
        if c:
            e %= n
            acc = out if e < deg else high
            acc[e] = acc[e] + c if e in acc else c
    if high:
        _reduce_high(n, high, out)
    return {e: c for e, c in out.items() if c}


def _reduce_high(n: int, high: Mapping[int, RationalLike], out: dict) -> dict:
    """Add each c x^e of high, phi(n) <= e < n, reduced mod Phi_n, into out.
    With r the radical of n and m = n/r, Phi_n(x) = Phi_r(x^m), so
    e = m q + t, t < m, gives x^e = x^t (x^m)^q = sum c' x^(t + m j) over
    row q of the radical's table, y^q = sum c' y^j mod Phi_r(y)."""
    deg, primes = _order_info(n)
    r = prod(primes)
    m, rows = n // r, _radical_rows(r)
    first = deg // m  # phi(r), the power of row 0
    for e, c in high.items():
        if c:
            q, t = divmod(e, m)
            for j, rc in rows[q - first]:
                k = t + m * j
                out[k] = out[k] + c * rc if k in out else c * rc
    return out


def _monomial(n: int, e: int) -> dict[int, int]:
    """x^e mod Phi_n for 0 <= e < n, as exponent -> nonzero coefficient."""
    return {e: 1} if e < _order_info(n)[0] else _reduce_high(n, {e: 1}, {})


# ---------------------------------------------------------------------------
# conductor reduction


@lru_cache(maxsize=None)
def _descent_units(n: int, p: int) -> tuple[int, int, int]:
    """(s, t, k) for n = mp with p prime, p not dividing m: sp + tm = 1, and
    k = 1 mod m with k mod p the least generator g of (Z/p)^x."""
    m = n // p
    s, t = pow(p, -1, m), pow(m, -1, p)
    qs = factorize(p - 1)
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
    return s, t, 1 + m * ((g - 1) * t % p)


def _descend(n: int, p: int, nums: dict[int, int]) -> Optional[tuple[dict[int, int], int]]:
    """Integer numerators of an order-n element on the power basis of Q_m,
    m = n/p for a prime p | n, as (sub, k) with x = sub / k over the same
    denominator; None if the element does not lie in Q_m.  nums is reduced
    (the output of _reduce_exponents) and not rational.

    For p not dividing m, Q_n = Q_m(zeta_p) and Gal(Q_n/Q_m) is isomorphic
    to (Z/p)^x, which is cyclic.  So x lies in Q_m iff x is fixed by one
    generator sigma_k, with k = 1 mod m and k mod p a generator of (Z/p)^x:
    one Galois image and one comparison decide it.
    """
    m = n // p
    if m % p == 0:
        # zeta_m^j = zeta_n^(jp) for j < phi(m) are themselves basis elements
        if any(e % p for e in nums):
            return None
        return {e // p: c for e, c in nums.items()}, 1
    if m == 1:
        return None  # Q_m = Q, and _canonical sends the rationals to order 1 first
    s, t, k = _descent_units(n, p)
    # (Z/2)^x is trivial, so Q_2m = Q_m
    if p != 2 and _reduce_exponents(n, {e * k % n: c for e, c in nums.items()}) != nums:
        return None
    # zeta_n^e = zeta_m^(es) zeta_p^(et).  The trace to Q_m sends zeta_p^b
    # to p - 1 if p | b, else to -1, and is p - 1 times the identity on Q_m.
    raw: dict[int, int] = {}
    for e, c in nums.items():
        a, v = e * s % m, (c * (p - 1) if e * t % p == 0 else -c)
        raw[a] = raw[a] + v if a in raw else v
    return _reduce_exponents(m, raw), p - 1


def _canonical(n: int, nums: dict[int, int], den: int) -> tuple[int, dict[int, int], int]:
    """(conductor, numerators, denominator) of sum(nums[e] * zeta_n^e) / den,
    with the denominator positive and coprime to the numerators."""
    nums = _reduce_exponents(n, nums)
    if not set(nums) - {0}:
        n = 1  # zero or rational
    changed = True
    while changed and n > 1:
        changed = False
        for p in _order_info(n)[1]:
            step = _descend(n, p, nums)
            if step is not None:
                (nums, k), n, changed = step, n // p, True
                den *= k
                break
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {e: c // g for e, c in nums.items()}
    return n, nums, den


# ---------------------------------------------------------------------------
# the scalar type


class Cyclotomic:
    """An exact element of some Q(zeta_n), always in canonical reduced form."""

    __slots__ = ("order", "_nums", "_den", "_hash")

    order: int
    _nums: dict[int, int]
    _den: int

    def __init__(self, order: int, coeffs: Mapping[int, RationalLike]):
        _check_order(order)
        raw = {int(e): Fraction(c) for e, c in coeffs.items()}
        den = lcm(*(c.denominator for c in raw.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in raw.items()}
        order, nums, den = _canonical(order, nums, den)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, order: int, nums: dict[int, int], den: int) -> "Cyclotomic":
        """A value from a triple already in canonical form (unchecked)."""
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "_nums", nums)
        object.__setattr__(out, "_den", den)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic values are immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__
        return (Cyclotomic._raw, (self.order, self._nums, self._den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: RationalLike) -> "Cyclotomic":
        return cls(1, {0: Fraction(value)})

    @classmethod
    def _coerce(cls, value: Scalar) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Cyclotomic")

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Fraction]]:
        """Canonical (exponent, coefficient) pairs, exponent-sorted."""
        return sorted((e, Fraction(c, self._den)) for e, c in self._nums.items())

    @property
    def conductor(self) -> int:
        """Smallest m with self in Q_m (the stored order, by canonicity)."""
        return self.order

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return (
                self.order == other.order
                and self._den == other._den
                and self._nums == other._nums
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.order == 1
                and self._den == other.denominator
                and self._nums.get(0, 0) == other.numerator
            )
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self.order != 1:
                h = hash((self.order, self._den, frozenset(self._nums.items())))
            elif self._den == 1:
                h = hash(self._nums.get(0, 0))
            else:  # equal to a Fraction, so it must hash like one
                h = hash(Fraction(self._nums[0], self._den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(str(c))
            else:
                z = f"z{self.order}" if e == 1 else f"z{self.order}^{e}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclotomic":
        return sum_cyclotomics((self, Cyclotomic._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.order, {e: -c for e, c in self._nums.items()}, self._den)

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        return self + (-Cyclotomic._coerce(other))

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return Cyclotomic._coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        return dot(((self, other),))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse x^-1 = rho(x) / N(x), where rho(x) is the
        product of the Galois images sigma_k(x) over the units k != 1 mod the
        order and N(x) = x * rho(x) is the rational field norm; raises
        ZeroDivisionError on 0."""
        if not self._nums:
            raise ZeroDivisionError("division by zero cyclotomic")
        if self.order == 1:
            num = self._nums[0]
            return Cyclotomic._raw(1, {0: self._den if num > 0 else -self._den}, abs(num))
        rho = _norm_cofactor(self)
        norm = self * rho
        # Q_n, n > 2, has no real embedding, so N(x) = p / q is a product of
        # |sigma_k(x)|^2 and p > 0; x^-1 = rho * q / p keeps the order of rho
        p, q = norm._nums[0], norm._den
        nums, den = {e: c * q for e, c in rho._nums.items()}, rho._den * p
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
        return Cyclotomic._raw(rho.order, nums, den)

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        return self * Cyclotomic._coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        return Cyclotomic._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        base, out = self, ONE
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- Galois ------------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply sigma_k : zeta_n -> zeta_n^k; k must be a unit mod order."""
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise NotAUnitError(f"{k} is not a unit modulo {n}")
        if k == 1 or n == 1:
            return self
        # every subfield Q_m is Galois-stable, so the image keeps the conductor
        # n; sigma_k permutes Z[zeta_n], so the numerators keep their gcd
        image = _reduce_exponents(n, {(k * e) % n: c for e, c in self._nums.items()})
        return Cyclotomic._raw(n, image, self._den)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def as_rational(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._nums.get(0, 0), self._den)

    @property
    def is_integer(self) -> bool:
        return self.order == 1 and self._den == 1

    def as_integer(self) -> int:
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        if self._den != 1:
            raise ValueError(f"{self} is not a rational integer")
        return self._nums.get(0, 0)

    @property
    def is_real(self) -> bool:
        return self.conjugate() == self

    @property
    def is_algebraic_integer(self) -> bool:
        # valid test: the power basis is a Z-basis of the ring of integers
        return self._den == 1

    def root_of_unity_log(self) -> Optional[tuple[int, int]]:
        """(m, j) with self == zeta_m^j and gcd(j, m) == 1, if a root of unity.

        Roots of unity of Q_f are exactly the +-zeta_f^e, so self == sign *
        zeta_f^e == zeta_{2f}^{2e + sign_bit * f} at the conductor f.
        """
        parts = self._root_of_unity_parts()
        if parts is None:
            return None
        sign, e = parts
        f = self.order
        num = (2 * e + (f if sign == -1 else 0)) % (2 * f)
        g = gcd(2 * f, num) if num else 2 * f
        return (2 * f // g, num // g)

    def root_of_unity_order(self) -> Optional[int]:
        """Minimal m with self**m == 1, or None if not a root of unity."""
        log = self.root_of_unity_log()
        return None if log is None else log[0]

    @property
    def is_root_of_unity(self) -> bool:
        return self.root_of_unity_order() is not None

    def _root_of_unity_parts(self) -> Optional[tuple[int, int]]:
        """(sign, e) with self == sign * zeta_order^e, e least, if a root of
        unity.  +-zeta_f^e is one basis term for e < phi(f); for any other
        e = m q + t < f, m = f/r with r the radical of f and t < m, every
        exponent is t mod m and the (j, c) form +-row q of the radical's
        table (see _reduce_high).  The rows are distinct, and for even f,
        where -zeta_f^e == zeta_f^(e + f/2), the least e has the least q."""
        f, nums = self.order, self._nums
        if self._den != 1 or not nums:
            return None
        if len(nums) == 1:
            ((e, c),) = nums.items()
            return (c, e) if c in (1, -1) else None
        r = prod(_order_info(f)[1])
        m, index = f // r, _row_index(r)
        t = next(iter(nums)) % m
        if any(k % m != t for k in nums):
            return None
        row = tuple(sorted((k // m, c) for k, c in nums.items()))
        neg = tuple((j, -c) for j, c in row)
        hits = sorted((index[p], sign) for sign, p in ((1, row), (-1, neg)) if p in index)
        return (hits[0][1], m * hits[0][0] + t) if hits else None

    # -- numerics ------------------------------------------------------------

    def complex_eval(self) -> complex:
        """The value at the principal embedding zeta_n = e^(2*pi*i/n), each
        part correctly rounded to a double, for display (`moddata rep`,
        demos); no decision reads it.

        A part that is exactly 0 is 0.0: the imaginary part vanishes iff
        x == conj(x), the real part iff x == -conj(x).  A part beyond the
        double range raises OverflowError, as float() of such an int does.
        """
        if self.order == 1:
            return complex(float(self.as_rational()))
        conj = self.conjugate()
        re = 0.0 if self == -conj else _nearest_double(self, False)
        im = 0.0 if self == conj else _nearest_double(self, True)
        return complex(re, im)

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        """{"order": n, "coeffs": {"e": "p/q"}} with decimal-string integers."""
        return {
            "order": self.order,
            "coeffs": {str(e): str(c) for e, c in self.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Cyclotomic":
        order = data["order"]
        if type(order) is not int:  # a JSON integer, not a float, string or boolean
            raise TypeError(f"order must be an integer, not {type(order).__name__}")
        coeffs = {}
        for e, s in data["coeffs"].items():
            # a "p/q" string: Fraction() would also read a float or a boolean
            if type(s) is not str:
                raise TypeError(f"coefficient must be a string, not {type(s).__name__}")
            # plain ASCII digits: int() would also read "1_0", " 1" and "+1"
            if not _EXPONENT_KEY(e):
                raise ValueError(f"exponent must be a decimal integer, not {e!r}")
            # and Fraction() "1e3", "1.5", "1_0", " 1/2 " and other scripts' digits
            if not _COEFFICIENT(s):
                raise ValueError(f"coefficient must be an integer or p/q, not {s!r}")
            coeffs[int(e)] = Fraction(s)
        return cls(order, coeffs)


# ---------------------------------------------------------------------------
# module-level API


ZERO = Cyclotomic(1, {})
ONE = Cyclotomic(1, {0: 1})


def sum_cyclotomics(values: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum with a single canonicalization pass (hot-loop accumulator): every
    value is re-expressed at the lcm order and the sum is canonicalized once."""
    terms = [x for x in values if x._nums]
    if len(terms) < 2:
        return terms[0] if terms else ZERO
    m = lcm(*(x.order for x in terms))
    _check_order(m)
    den = lcm(*(x._den for x in terms))
    nums: dict[int, int] = {}
    for x in terms:
        f, scale = den // x._den, m // x.order
        for e, c in x._nums.items():
            e *= scale
            nums[e] = nums.get(e, 0) + c * f
    return Cyclotomic._raw(*_canonical(m, nums, den))


def dot(pairs: Iterable[tuple[Scalar, Scalar]]) -> Cyclotomic:
    """sum(a * b for a, b in pairs), multiplied out in integers at the lcm
    order and canonicalized once."""
    terms = []
    for a, b in pairs:
        a, b = Cyclotomic._coerce(a), Cyclotomic._coerce(b)
        if a._nums and b._nums:
            terms.append((a, b))
    if not terms:
        return ZERO
    n = lcm(*(v.order for pair in terms for v in pair))
    if len(terms) > 1 and not _within_cap(n):
        # the products may still lie in smaller fields
        return sum_cyclotomics(dot([pair]) for pair in terms)
    _check_order(n)
    den = lcm(*(a._den * b._den for a, b in terms))
    prod: dict[int, int] = {}
    for a, b in terms:
        f, sa, sb = den // (a._den * b._den), n // a.order, n // b.order
        right = b._nums.items() if sb == 1 else [(e * sb, c) for e, c in b._nums.items()]
        for e1, c1 in a._nums.items():
            e1, c1 = e1 * sa, c1 * f
            for e2, c2 in right:
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
    return Cyclotomic._raw(*_canonical(n, prod, den))


def _norm_cofactor(x: Cyclotomic) -> Cyclotomic:
    """rho(x), the product of sigma_k(x) over the units k != 1 mod x.order,
    so that x * rho(x) is the rational field norm of x over Q_(x.order)."""
    rho = ONE
    for k in units_mod(x.order)[1:]:
        rho = rho * x.galois(k)
    return rho


def _numerators_at(x: Cyclotomic, n: int) -> tuple[dict[int, int], int]:
    """(numerators on the power basis of Q_n, denominator) of x, for x.order | n."""
    step = n // x.order
    return _reduce_exponents(n, {e * step: c for e, c in x._nums.items()}), x._den


def _residue(x: Cyclotomic, n: int, emb: tuple[int, tuple[int, ...]]) -> int:
    """The image of x under zeta_n -> g in F_ell, for x.order | n and emb =
    (ell, powers) with powers[e] = g^e mod ell, g of order n (an _embedding(n, i)
    or its conjugate); ValueError if ell divides the denominator of x."""
    ell, powers = emb
    step = n // x.order
    v = sum(c * powers[e * step] for e, c in x._nums.items())
    return v % ell if x._den == 1 else v * pow(x._den, -1, ell) % ell


def zeta(n: int, e: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^e, built in canonical form: with gcd(e, n) = 1
    it is primitive of order n, whose conductor is n unless n = 2k with k odd,
    where zeta_2k^e = -zeta_k^(e(k+1)/2) (e is odd)."""
    _check_order(n)
    g = gcd(e, n)
    n, e = n // g, e // g
    sign = 1
    if n % 4 == 2:
        n //= 2
        e, sign = e * (n + 1) // 2, -1
    return Cyclotomic._raw(n, _reduce_exponents(n, {e: sign}), 1)


def sqrt_int(m: int) -> Cyclotomic:
    """Exact positive square root of a nonnegative integer, via Gauss sums."""
    if m < 0:
        raise ValueError("sqrt_int needs a nonnegative integer")
    if m == 0:
        return ZERO
    square_part, squarefree = 1, 1
    for p, e in factorize(m).items():
        square_part *= p ** (e // 2)
        if e % 2:
            squarefree *= p
    root = Cyclotomic.from_rational(square_part)
    for p in factorize(squarefree):
        if p == 2:
            factor = zeta(8) + zeta(8, -1)
        else:
            g = Cyclotomic(p, {a: _legendre(a, p) for a in range(1, p)})
            # Gauss: g = sqrt(p) for p = 1 mod 4, i*sqrt(p) for p = 3 mod 4
            factor = g if p % 4 == 1 else g * zeta(4, -1)
        root = root * factor
    return root


def _legendre(a: int, p: int) -> int:
    r = pow(a, (p - 1) // 2, p)
    return r if r <= 1 else -1


# ---------------------------------------------------------------------------
# certified evaluation: the sign of a real value, each part as a double
#
# A fixed-point number at precision p is an integer v standing for v / 2^p,
# and "error err" means |v - 2^p * (true value)| <= err.  Floor divisions by
# positive integers nest exactly: floor(floor(a / b) / c) == floor(a / (bc)).


def real_sign(x: Cyclotomic) -> int:
    """The sign -1, 0 or +1 of a real x, decided exactly; ValueError if x is
    not real.

    Zero is tested exactly.  Otherwise x = (1/den) sum c_e cos(2 pi e/n) is
    evaluated in integer fixed point with a proven error bound, and the
    precision doubles until the bound excludes 0, which it must since x != 0.
    A precision past the Liouville bound of x that still leaves the sign
    open can only come from a fault in the evaluation: ArithmeticError.
    """
    if x.order == 1:
        q = x._nums.get(0, 0)
        return (q > 0) - (q < 0)
    if not x.is_real:
        raise ValueError(f"{x} is not real")
    p = 64  # bits; every sign of the catalog data is decided at this precision
    while True:
        total, err = _fixed_sum(x, p, False)
        if abs(total) > err:
            return 1 if total > 0 else -1
        # |2^p den x| <= 2 err, against |den x| >= 1 / _liouville(x)
        if err * _liouville(x) << 1 < 1 << p:
            raise ArithmeticError(f"the sign of {x} is undecided at {p} bits")
        p *= 2


def _nearest_double(x: Cyclotomic, imag: bool) -> float:
    """The real part of x, or with imag its imaginary part, rounded to the
    nearest double, for x of order > 1 whose part is not 0.

    The part is evaluated like real_sign's sum, and the precision doubles
    until both ends of the error interval round to the same double.  When a
    part lies on or next to a rounding boundary (a midpoint between two
    doubles), the doubling stops at a cap past which the interval holds
    that one boundary only, and the side is decided exactly by real_sign.
    """
    p = 64
    while True:
        total, err = _fixed_sum(x, p, imag)
        scale = x._den << p
        lo, hi = (total - err) / scale, (total + err) / scale  # correctly rounded
        if _same_double(lo, hi):
            return lo
        # 2 den part is, up to a factor i, sum c_e (zeta^e +- zeta^-e): a
        # nonzero algebraic integer of Q_n whose conjugates are at most
        # 2C = 2 sum |c_e|, so |part| >= L = 1/(2 den (2C)^(phi-1)).
        # Past the cap the interval is narrower than L / 2^56: its points lie
        # beyond L/2 on one side of 0, where rounding boundaries are more
        # than L / 2^55 apart, so it holds at most one of them.
        phi = _order_info(x.order)[0]
        if err * _liouville(x) << (phi + 57) < 1 << p:
            break
        p *= 2
    if not _same_double(nextafter(lo, inf), hi):
        raise ArithmeticError(f"{x} is not rounded at {p} bits")
    mid = (Fraction(lo) + Fraction(hi)) / 2
    conj = x.conjugate()
    part = (x - conj) * zeta(4, -1) if imag else x + conj  # 2 Im x or 2 Re x
    side = real_sign(part * Fraction(1, 2) - mid)
    return lo if side < 0 else hi if side > 0 else float(mid)  # ties to even


def _same_double(a: float, b: float) -> bool:
    # -0.0 == 0.0, but an interval that straddles 0 below the smallest
    # double leaves the sign of the rounded part open
    return a == b and copysign(1.0, a) == copysign(1.0, b)


def _fixed_sum(x: Cyclotomic, p: int, imag: bool) -> tuple[int, int]:
    """den 2^p times the real part (1/den) sum c_e cos(2 pi e/n) of x, or
    with imag its imaginary part (1/den) sum c_e sin(2 pi e/n), at
    precision p with its error; sin(2 pi e/n) = cos(2 pi (4e - n)/(4n))."""
    n = x.order
    k, shift = (4, n) if imag else (1, 0)
    pi, pi_err = _pi_fixed(p)
    total = err = 0
    for e, c in x._nums.items():
        v, v_err = _cos_fixed(k * e - shift, k * n, pi, pi_err, p)
        total += c * v
        err += abs(c) * v_err
    return total, err


def _liouville(x: Cyclotomic) -> int:
    """C^(phi(n) - 1) for C = sum |c_e|.  den x = sum c_e zeta_n^e is an
    algebraic integer whose conjugates are at most C in absolute value, and
    its norm is a nonzero integer when x != 0, so |den x| >= 1 / C^(phi(n)-1)."""
    return sum(map(abs, x._nums.values())) ** (_order_info(x.order)[0] - 1)


def _arctan_inv(x: int, p: int) -> tuple[int, int]:
    """arctan(1/x), x >= 2, at precision p with its error.

    Term k is floor(2^p / ((2k+1) x^(2k+1))) exactly, so each of the K terms
    added is off by less than 1; the loop stops at the first power that is
    0, where 2^p / x^(2K+1) < 1 bounds the alternating tail."""
    power, total, k, x2 = (1 << p) // x, 0, 0, x * x
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total, k + 1


def _pi_fixed(p: int) -> tuple[int, int]:
    """pi at precision p with its error, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a, a_err = _arctan_inv(5, p)
    b, b_err = _arctan_inv(239, p)
    return 16 * a - 4 * b, 16 * a_err + 4 * b_err


def _cos_fixed(num: int, den: int, pi: int, pi_err: int, p: int) -> tuple[int, int]:
    """cos(2 pi num / den) at precision p with its error, from pi with error
    pi_err at the same precision.

    Octant reduction: 2 pi num/den = q pi/2 + y with q = round(4 num/den) and
    |y| <= pi/4, so the value is +-cos y or +-sin y.  y is computed with
    error at most pi_err/4 + 1, and cos and sin are 1-Lipschitz, so that
    error carries over unchanged.  The Taylor series is then summed at the
    computed y' exactly: with |y'| < 0.79, y2 = floor(y'^2 2^p) and the
    divisors d_k = (2k-1)(2k) for cos, (2k)(2k+1) for sin, each term
    t_k = floor(t_(k-1) y2 / (2^p d_k)) is off by less than
    (0.62 err_(k-1) + 1) / d_k + 1: 1.5 for the first cos term (err_0 = 0,
    d_1 = 2) and below 1.4 for every other (d_k >= 6).  The sum stops at the
    first term that is 0, and the alternating tail after it is below 2.
    """
    q = (8 * num + den) // (2 * den)
    m = 4 * num - q * den  # |m| <= den/2, y = pi m / (2 den)
    y = pi * m // (2 * den)
    r = q & 1  # q even: cos y is needed, q odd: sin y
    a = abs(y)
    y2 = a * a >> p
    term = total = a if r else 1 << p
    k = 0
    while term:
        k += 1
        term = (term * y2 >> p) // ((2 * k + r - 1) * (2 * k + r))
        total += -term if k & 1 else term
    # cos(q pi/2 + y) is cos y, -sin y, -cos y, sin y for q = 0, 1, 2, 3 mod 4
    if r and y < 0:
        total = -total
    if q & 3 in (1, 2):
        total = -total
    return total, 2 * k + 2 + pi_err // 4 + 2
