"""real_sign decides the sign of a real cyclotomic exactly: the sign of every
real value the program meets agrees with the float evaluation, the fixed-point
cosine stays within the error it claims, and a value closer to 0 than the
first precision can see is decided after the precision doubles."""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

from moddata import cyclotomic as cy
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import ONE, ZERO, Cyclotomic, real_sign, zeta
from moddata.galois import _characters
from moddata.modular_data import derived_scalars, load
from moddata.sl2z_reps import _anomaly_sixth_root

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BUILDERS = {
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (1, 2, 3, 5, 6)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (1, 3, 5, 7, 9)},
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
}


def float_sign(x):
    v = x.complex_eval().real
    return (v > 0) - (v < 0)


def real_values(datum):
    """The dims, D^2, +-D and every real character value of a datum."""
    ds = derived_scalars(datum)
    d_root = ds.gauss_plus * _anomaly_sixth_root(datum).conjugate() ** 3
    values = [*ds.dims, ds.global_dim_sq, d_root, -d_root]
    assert all(v.is_real for v in values)
    return values + [v for col in _characters(datum.S) for v in col if v.is_real]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_sign_matches_float_evaluation(name):
    for x in real_values(BUILDERS[name]()):
        if not x:
            assert real_sign(x) == 0
        else:
            # far enough from 0 for the float sign to be right
            assert abs(x.complex_eval().real) > 1e-6, x
            assert real_sign(x) == float_sign(x), x


def test_zero_rationals_and_non_real():
    assert real_sign(ZERO) == 0
    assert real_sign(ONE) == 1
    assert real_sign(Cyclotomic.from_rational(Fraction(-1, 3))) == -1
    assert real_sign(zeta(5) + zeta(5, -1)) == 1  # 2 cos(2 pi/5)
    assert real_sign(zeta(5, 2) + zeta(5, -2)) == -1  # 2 cos(4 pi/5)
    for x in (zeta(4), zeta(5), zeta(12) + 1):
        with pytest.raises(ValueError):
            real_sign(x)


@lru_cache(maxsize=None)
def near_zero_values():
    """(zeta_n + zeta_n^-1) - p/q for the first two continued-fraction
    convergents p/q of 2 cos(2 pi/n) within 1e-20, with the sign of the
    difference at 80 digits; consecutive convergents give both signs."""
    out = []
    with mpmath.workdps(80):
        for n in (5, 7, 8, 9, 11, 12, 13):
            alpha = 2 * mpmath.cos(2 * mpmath.pi / n)
            h0, h1, k0, k1, rest = 0, 1, 1, 0, alpha
            found = 0
            while found < 2:
                a = int(mpmath.floor(rest))
                h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
                rest = 1 / (rest - a)
                gap = alpha - mpmath.mpf(h1) / k1
                if abs(gap) < mpmath.mpf("1e-20"):
                    x = zeta(n) + zeta(n, -1) - Fraction(h1, k1)
                    out.append((x, 1 if gap > 0 else -1))
                    found += 1
    return out


def test_near_zero_values_double_the_precision(monkeypatch):
    precisions = []
    pi_fixed = cy._pi_fixed

    def recording(p):
        precisions.append(p)
        if len(precisions) > 8:
            raise AssertionError(f"undecided after precisions {precisions}")
        return pi_fixed(p)

    monkeypatch.setattr(cy, "_pi_fixed", recording)
    values = near_zero_values()
    assert {s for _, s in values} == {-1, 1}
    for x, expected in values:
        for value, sign in ((x, expected), (-x, -expected)):
            precisions.clear()
            assert real_sign(value) == sign, value
            assert len(precisions) > 1 and precisions == sorted(set(precisions))
        if expected > 0:
            # the float test with a 1e-9 tolerance it replaces calls x not positive
            z = x.complex_eval()
            assert not (abs(z.imag) < 1e-9 and z.real > 1e-9)


@pytest.mark.parametrize("p", [64, 128, 256, 512])
def test_pi_within_its_error(p):
    pi, err = cy._pi_fixed(p)
    with mpmath.workdps(p // 3 + 30):
        assert abs(pi - mpmath.pi * 2**p) <= err


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("pi_off", [0, 10**6, -(10**6)])
def test_cosine_within_its_error(p, pi_off):
    """_cos_fixed is within its claimed error for every pi within pi_err, the
    worst allowed pi included."""
    with mpmath.workdps(p // 3 + 30):
        pi = int(mpmath.nint(mpmath.pi * 2**p)) + pi_off
        pi_err = abs(pi_off) + 1
        for den in range(1, 61):
            for num in range(den):
                v, err = cy._cos_fixed(num, den, pi, pi_err, p)
                exact = mpmath.cos(2 * mpmath.pi * num / den) * 2**p
                assert abs(v - exact) <= err, (num, den)
