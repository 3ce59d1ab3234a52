"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis {zeta_n^e : 0 <= e < phi(n)} as
integer numerators over one positive common denominator, reduced modulo the
n-th cyclotomic polynomial, pushed down to their conductor and divided by
the gcd of denominator and numerators.  As a consequence two values are
equal iff their (order, numerators, denominator) triples are identical, and
the stored order is never congruent to 2 mod 4.  Fraction appears only at
the boundary: construction, items(), JSON, printing, as_rational(),
complex_eval() and the hash of a non-integer rational.

Values are immutable; the per-order phi/reduction tables are written
under a lock so instances can be shared freely between threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Union

import mpmath

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Cyclotomic"]

#: complex_eval returns a Python complex, so this is the honest digit cap.
EVAL_DIGIT_CAP = 15

_DEFAULT_ORDER_CAP = 2000
_order_cap = _DEFAULT_ORDER_CAP


class InvalidOrderError(ValueError):
    """Raised for order 0 or an order whose phi(n) exceeds the cap."""


class NotAUnitError(ValueError):
    """Raised when a Galois index is not coprime to the order."""


def set_order_cap(cap: int) -> None:
    """Set the maximal allowed phi(n) (cost guard for Phi_n reduction)."""
    global _order_cap
    if cap < 1:
        raise ValueError("cap must be positive")
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


def radical(n: int) -> int:
    r = 1
    for p in factorize(n):
        r *= p
    return r


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def units_mod(n: int) -> list[int]:
    """The unit group (Z/nZ)^x as a sorted list of representatives."""
    return [k for k in range(1, max(n, 2)) if gcd(k, n) == 1] or [1]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction tables

# per-order tables; a dict read is atomic, so only writes take the lock
_poly_lock = threading.Lock()
_phi_cache: dict[int, tuple[int, tuple[int, ...]]] = {}  # n -> _order_info(n)
_red_cache: dict[int, list[tuple[int, ...]]] = {}  # n -> _reduction_rows(n)


def _order_info(n: int) -> tuple[int, tuple[int, ...]]:
    """(phi(n), the primes dividing n), factored once per order."""
    info = _phi_cache.get(n)
    if info is None:
        info = (euler_phi(n), tuple(factorize(n)))
        with _poly_lock:
            info = _phi_cache.setdefault(n, info)
    return info


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
    if r == 1:
        return [-1, 1]
    f = [0] * (r + 1)
    f[0], f[r] = -1, 1
    for d in divisors(r)[:-1]:
        f = _poly_div_exact(f, _cyclotomic_poly_squarefree(d))
    return f


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, little-endian, monic of degree phi(n)."""
    # the first reduction row is x^phi(n) mod Phi_n = x^phi(n) - Phi_n
    return (*(-c for c in _reduction_rows(n)[0]), 1)


def _reduction_rows(n: int) -> list[tuple[int, ...]]:
    """Row e-phi(n) is x^e mod Phi_n for phi(n) <= e <= max(n-1, 2*phi(n)-2)."""
    rows = _red_cache.get(n)
    if rows is not None:
        return rows
    r = radical(n)
    base, step = _cyclotomic_poly_squarefree(r), n // r  # Phi_n(x) = Phi_r(x^step)
    deg = (len(base) - 1) * step
    top = [0] * deg  # x^deg = top
    for i, c in enumerate(base[:-1]):
        top[i * step] = -c
    rows = [tuple(top)]
    hi = max(n - 1, 2 * deg - 2)
    cur = top
    for _ in range(deg + 1, hi + 1):
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] += lead * top[j]
        rows.append(tuple(nxt))
        cur = nxt
    with _poly_lock:
        return _red_cache.setdefault(n, rows)


def _within_cap(n: int) -> bool:
    # phi(n) >= sqrt(n/2), so a larger n is refused without factoring it
    if n > 2 * _order_cap**2:
        return False
    info = _phi_cache.get(n)
    return (euler_phi(n) if info is None else info[0]) <= _order_cap


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
        rows = _reduction_rows(n)
        for e, c in high.items():
            if c:
                for j, rc in enumerate(rows[e - deg]):
                    if rc:
                        out[j] = out[j] + c * rc if j in out else c * rc
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# conductor reduction


def _descend(n: int, p: int, nums: dict[int, int]) -> Optional[tuple[dict[int, int], int]]:
    """Integer numerators of an order-n element on the power basis of Q_m,
    m = n/p for a prime p | n, as (sub, k) with x = sub / k over the same
    denominator; None if the element does not lie in Q_m."""
    m = n // p
    if m % p == 0:
        # zeta_m^j = zeta_n^(jp) for j < phi(m) are themselves basis elements
        if any(e % p for e in nums):
            return None
        return {e // p: c for e, c in nums.items()}, 1
    # zeta_n^e = zeta_m^(es) zeta_p^(et) with sp + tm = 1.  The trace to Q_m
    # sends zeta_p^b to p - 1 if p | b, else to -1, and is p - 1 times the
    # identity on Q_m: project by it, then embed back and compare.
    s, t = pow(p, -1, m), pow(m, -1, p)
    raw: dict[int, int] = {}
    for e, c in nums.items():
        a, v = e * s % m, (c * (p - 1) if e * t % p == 0 else -c)
        raw[a] = raw[a] + v if a in raw else v
    sub = _reduce_exponents(m, raw)
    back = _reduce_exponents(n, {j * p: c for j, c in sub.items()})
    if back != {e: c * (p - 1) for e, c in nums.items()}:
        return None
    return sub, p - 1


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
        """(sign, e) with self == sign * zeta_order^e, if a root of unity."""
        if self._den != 1:
            return None
        f, nums = self.order, self._nums
        if f == 1:
            q = nums.get(0, 0)
            if q == 1:
                return (1, 0)
            if q == -1:
                return (-1, 0)
            return None
        if self * self.conjugate() != ONE:
            return None
        # for a non-unit e, +-zeta_f^e lies in a proper subfield of Q_f
        negated = {e: -c for e, c in nums.items()}
        for e in units_mod(f):
            mono = _reduce_exponents(f, {e: 1})
            if nums == mono:
                return (1, e)
            if negated == mono:
                return (-1, e)
        return None

    # -- numerics ------------------------------------------------------------

    def complex_eval(self, digits: int = EVAL_DIGIT_CAP) -> complex:
        """Float evaluation at the principal embedding zeta_n = e^(2*pi*i/n).

        Diagnostics only; never used to decide exact equality.
        """
        if not 1 <= digits <= EVAL_DIGIT_CAP:
            raise ValueError(f"digits must be in 1..{EVAL_DIGIT_CAP}")
        with mpmath.workdps(digits + 15):
            total = mpmath.mpc(0)
            for e, num in self._nums.items():
                c = Fraction(num, self._den)
                total += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                    mpmath.mpf(2 * e) / self.order
                )
            return complex(float(total.real), float(total.imag))

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        """{"order": n, "coeffs": {"e": "p/q"}} with decimal-string integers."""
        return {
            "order": self.order,
            "coeffs": {str(e): str(c) for e, c in self.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Cyclotomic":
        order = int(data["order"])
        coeffs = {int(e): Fraction(s) for e, s in data["coeffs"].items()}
        return cls(order, coeffs)


# ---------------------------------------------------------------------------
# module-level API


ZERO = Cyclotomic(1, {})
ONE = Cyclotomic(1, {0: 1})


def sum_cyclotomics(values: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum with a single canonicalization pass (hot-loop accumulator)."""
    return _twisted_sum(1, ((0, v) for v in values), 0)


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


def _twisted_sum(
    n: int, terms: Iterable[tuple[int, Cyclotomic]], shift: int
) -> Cyclotomic:
    """sum(x * zeta_n^(shift * s) for s, x in terms): every x is re-expressed
    at the lcm order, the root of unity becomes an exponent shift there, and
    the sum is canonicalized once."""
    terms = [(s, x) for s, x in terms if x._nums]
    if not terms:
        return ZERO
    if len(terms) == 1 and terms[0][0] * shift % n == 0:
        return terms[0][1]
    m = lcm(n, *(x.order for _, x in terms))
    _check_order(m)
    den = lcm(*(x._den for _, x in terms))
    step = shift * (m // n)
    nums: dict[int, int] = {}
    for s, x in terms:
        f, scale, offset = den // x._den, m // x.order, s * step
        for e, c in x._nums.items():
            e = e * scale + offset
            nums[e] = nums.get(e, 0) + c * f
    return Cyclotomic._raw(*_canonical(m, nums, den))


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
            g = ZERO
            for a in range(1, p):
                g = g + Cyclotomic(p, {a: _legendre(a, p)})
            # Gauss: g = sqrt(p) for p = 1 mod 4, i*sqrt(p) for p = 3 mod 4
            factor = g if p % 4 == 1 else g * zeta(4, -1)
        root = root * factor
    return root


def _legendre(a: int, p: int) -> int:
    r = pow(a, (p - 1) // 2, p)
    return r if r <= 1 else -1
