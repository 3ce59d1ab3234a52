"""Constructors for the explicit modular-data families, all exact."""

from __future__ import annotations

from math import gcd

from .cyclotomic import Cyclotomic, ONE, _check_order, is_prime, zeta
from .modular_data import ModularDatum


class InvalidFamilyError(ValueError):
    """Family parameters outside the construction's domain."""


class InvalidParametersError(ValueError):
    """Parameter tuple violating the family's defining constraint."""


class NotModularError(ValueError):
    """Degenerate quadratic form: the requested pointed datum is not modular."""


def su2_odd_mod2(p: int, conj: int = 1) -> ModularDatum:
    """The rank-p datum with S_ij = sin((2i+1)(2j+1)pi/q)/sin(pi/q),
    theta_j = zeta_q^(j^2+j), q = 2p+1 prime, with a Galois conjugate applied.

    For odd a the sine ratio is the quantum integer [a] = sum of zeta_q^m over
    |m| <= a//2.  Each q consecutive powers sum to 0, so [a] is the sum of the
    first a mod q of them; sigma_conj multiplies each exponent by conj.
    """
    q = 2 * p + 1
    if p >= 1:
        _check_order(q)  # bounds the primality test
    if p < 1 or not is_prime(q):
        raise InvalidFamilyError(f"q = 2p+1 = {q} is not prime")
    if gcd(conj, q) != 1:
        raise InvalidFamilyError(f"conj = {conj} is not a unit mod {q}")

    def quantum_integer(a: int) -> Cyclotomic:
        return Cyclotomic(q, {conj * (k - a // 2) % q: 1 for k in range(a % q)})

    S = tuple(
        tuple(quantum_integer((2 * i + 1) * (2 * j + 1)) for j in range(p))
        for i in range(p)
    )
    exps = tuple((conj * (j * j + j)) % q for j in range(p))
    return ModularDatum(p, q, exps, S)


def pointed_zn(n: int, m: int = 1) -> ModularDatum:
    """Pointed datum on Z/n (n odd): theta_j = zeta_n^(m j^2), S_jk = zeta_n^(-2mjk).

    The S exponent sign is forced by the twist equation for this twist
    convention; the construction's correctness oracle is its own
    check_admissible pass.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidFamilyError(f"n must be odd and positive, got {n}")
    if gcd(m, n) != 1 or gcd(2 * m, n) != 1:
        raise NotModularError(f"quadratic form with m = {m} is degenerate mod {n}")
    S = tuple(
        tuple(zeta(n, -2 * m * j * k) for k in range(n)) for j in range(n)
    )
    exps = tuple((m * j * j) % n for j in range(n))
    return ModularDatum(n, n, exps, S)


def su2_4_family(
    nu1: int, nu2: int, theta2: Cyclotomic, theta3: Cyclotomic
) -> ModularDatum:
    """One of the 16 rank-5 data with S rows (1, 1, 2, nu1*sqrt3, nu1*sqrt3)
    and T = diag(1, 1, theta2, theta3, -theta3).

    Requires theta2 a primitive 3rd root and theta3^2 = -nu2*nu3*i where
    nu3 is the sign with theta2 = e^(nu3 * 2pi*i/3).
    """
    if nu1 not in (1, -1) or nu2 not in (1, -1):
        raise InvalidParametersError("nu1, nu2 must be +-1")
    if theta2 == zeta(3):
        nu3 = 1
    elif theta2 == zeta(3, 2):
        nu3 = -1
    else:
        raise InvalidParametersError(f"theta2 = {theta2} is not a primitive 3rd root")
    log = theta3.root_of_unity_log()
    if log is None or log[0] != 8:
        raise InvalidParametersError(f"theta3 = {theta3} is not a primitive 8th root")
    if theta3 * theta3 != -nu2 * nu3 * zeta(4):
        raise InvalidParametersError("theta3^2 != -nu2*nu3*i")

    rt3 = zeta(12) + zeta(12, -1)
    a = nu1 * rt3
    b = nu2 * rt3
    two = Cyclotomic.from_rational(2)
    S = (
        (ONE, ONE, two, a, a),
        (ONE, ONE, two, -a, -a),
        (two, two, -two, Cyclotomic.from_rational(0), Cyclotomic.from_rational(0)),
        (a, -a, Cyclotomic.from_rational(0), -b, b),
        (a, -a, Cyclotomic.from_rational(0), b, -b),
    )
    e3 = 1 if nu3 == 1 else 2
    e8 = log[1]
    exps = (0, 0, 8 * e3 % 24, 3 * e8 % 24, (3 * e8 + 12) % 24)
    return ModularDatum(5, 24, exps, S)


def su2_4_parameter_tuples() -> list[tuple[int, int, Cyclotomic, Cyclotomic]]:
    """The 16 admissible (nu1, nu2, theta2, theta3) tuples, in a fixed order."""
    tuples = []
    for nu1 in (1, -1):
        for nu2 in (1, -1):
            for nu3, theta2 in ((1, zeta(3)), (-1, zeta(3, 2))):
                c = 1 if -nu2 * nu3 == 1 else 3  # -nu2*nu3*i = zeta_8^(2c)
                for theta3 in (zeta(8, c), zeta(8, c + 4)):
                    tuples.append((nu1, nu2, theta2, theta3))
    return tuples


def su2_4_family_all() -> list[ModularDatum]:
    return [su2_4_family(*params) for params in su2_4_parameter_tuples()]


def rank5_catalog() -> list[tuple[str, ModularDatum]]:
    """All rank-5 catalog data with stable names (suite and golden files)."""
    out = [("su2_9_mod2", su2_odd_mod2(5))]
    out += [
        (f"su2_4_family_{i}", d) for i, d in enumerate(su2_4_family_all())
    ]
    out.append(("pointed_z5", pointed_zn(5, 1)))
    return out
