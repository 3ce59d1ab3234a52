"""The certified fixed-point evaluation behind real_sign and complex_eval.

real_sign decides the sign of a real cyclotomic exactly: the sign of every
real value the program meets agrees with the mpmath evaluation, the
fixed-point cosine stays within the error it claims, and a value closer to 0
than the first precision can see is decided after the precision doubles.
complex_eval rounds each part correctly: it equals the mpmath evaluation on
every nonzero part of every value the program displays, is exactly 0.0 on a
zero part and rounds an exact midpoint to even.  A faulty cosine makes both
raise instead of doubling the precision forever."""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from moddata import cyclotomic as cy
from moddata.catalog import pointed_zn, su2_odd_mod2
from moddata.cyclotomic import ONE, ZERO, Cyclotomic, real_sign, sqrt_int, zeta
from moddata.modular_data import _characters, derived_scalars, load
from moddata.sl2z_reps import _anomaly_sixth_root, all_lifts
from _oracles import mpmath_complex_eval
from test_cli import run_python

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BUILDERS = {
    **{f"su2_odd_mod2({p})": (lambda p=p: su2_odd_mod2(p)) for p in (1, 2, 3, 5, 6)},
    **{f"pointed_zn({n})": (lambda n=n: pointed_zn(n)) for n in (1, 3, 5, 7, 9)},
    **{f.name: (lambda f=f: load(f)) for f in sorted(DATA_DIR.glob("*.json"))},
}


def float_sign(x):
    v = mpmath_complex_eval(x).real
    return (v > 0) - (v < 0)


def real_values(datum):
    """The dims, D^2, +-D and every real character value of a datum."""
    ds = derived_scalars(datum)
    d_root = ds.gauss_plus * zeta(*_anomaly_sixth_root(datum)).conjugate() ** 3
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
            assert abs(mpmath_complex_eval(x).real) > 1e-6, x
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
    mpmath = pytest.importorskip("mpmath")
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
            z = mpmath_complex_eval(x)
            assert not (abs(z.imag) < 1e-9 and z.real > 1e-9)


@pytest.mark.parametrize("p", [64, 128, 256, 512])
def test_pi_within_its_error(p):
    mpmath = pytest.importorskip("mpmath")
    pi, err = cy._pi_fixed(p)
    with mpmath.workdps(p // 3 + 30):
        assert abs(pi - mpmath.pi * 2**p) <= err


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("pi_off", [0, 10**6, -(10**6)])
def test_cosine_within_its_error(p, pi_off):
    """_cos_fixed is within its claimed error for every pi within pi_err, the
    worst allowed pi included; a negative numerator is how the sine enters."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(p // 3 + 30):
        pi = int(mpmath.nint(mpmath.pi * 2**p)) + pi_off
        pi_err = abs(pi_off) + 1
        for den in range(1, 61):
            for num in range(-den, den):
                v, err = cy._cos_fixed(num, den, pi, pi_err, p)
                exact = mpmath.cos(2 * mpmath.pi * num / den) * 2**p
                assert abs(v - exact) <= err, (num, den)


def display_values():
    """Every S entry, dim, D^2, p+-, anomaly and s and t entry of the 12 lifts
    of each datum in BUILDERS, every zeta_n^e with n <= 120 and sqrt_int(m)
    for m < 60."""
    values = set()
    for build in BUILDERS.values():
        datum = build()
        ds = derived_scalars(datum)
        values.update(v for row in datum.S for v in row)
        values.update((*ds.dims, ds.global_dim_sq, ds.gauss_plus, ds.gauss_minus))
        values.add(ds.anomaly)
        for rep in all_lifts(datum):
            values.update(v for row in rep.s for v in row)
            values.update(rep.t)
    values.update(zeta(n, e) for n in range(1, 121) for e in range(n))
    values.update(sqrt_int(m) for m in range(60))
    return values


def test_complex_eval_is_correctly_rounded():
    values = display_values()
    assert len(values) > 4000
    for x in values:
        got, want = x.complex_eval(), mpmath_complex_eval(x)
        conj = x.conjugate()
        for g, w, zero in ((got.real, want.real, x == -conj), (got.imag, want.imag, x == conj)):
            # hex tells -0.0 from 0.0
            assert g.hex() == (0.0 if zero else w).hex(), x


@pytest.mark.parametrize(
    "x, want",
    [
        (Fraction(2**53 + 1) + zeta(4), complex(2**53, 1)),
        (Fraction(2**53 + 3) + zeta(4), complex(2**53 + 4, 1)),
        (1 - Fraction(2**53 + 1) * zeta(4), complex(1, -(2**53))),
        (Fraction(2**53 + 1) + Fraction(1, 10**30) + zeta(4), complex(2**53 + 2, 1)),
    ],
)
def test_complex_eval_rounds_a_midpoint_to_even(x, want):
    """A part on a midpoint between two doubles, or next to it, is placed by
    an exact sign test once the doubling reaches its cap."""
    assert x.complex_eval() == want


@pytest.mark.parametrize(
    "call",
    [
        "real_sign(zeta(5) + zeta(5, -1))",
        "real_sign(-zeta(12) - zeta(12, -1))",
        "zeta(5).complex_eval()",
        "(zeta(7) + zeta(7, -1)).complex_eval()",
        "(zeta(8) - zeta(8, -1)).complex_eval()",
    ],
)
def test_faulty_cosine_raises(call):
    """With _cos_fixed returning (0, 1), no precision excludes 0 or fixes a
    double: the Liouville cap turns that into ArithmeticError."""
    code = (
        "from moddata import cyclotomic as cy\n"
        "from moddata.cyclotomic import real_sign, zeta\n"
        "cy._cos_fixed = lambda *args: (0, 1)\n"
        "try:\n"
        f"    {call}\n"
        "except ArithmeticError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ArithmeticError')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
