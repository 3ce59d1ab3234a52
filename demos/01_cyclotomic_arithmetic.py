#!/usr/bin/env python3
"""Tour of exact cyclotomic arithmetic: canonical forms, Galois action,
conductors, and the float evaluator (diagnostics only)."""

from fractions import Fraction

from moddata import Cyclotomic, sqrt_int, zeta

print("== canonical forms ==")
i = zeta(4)
print("i * i              =", i * i)
print("1 + z5 + ... + z5^4 =", Cyclotomic(5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}))
z6_sq = Cyclotomic(6, {2: 1})
print("z6^2 reduces to     =", z6_sq, " (order", z6_sq.order, ")")

print()
print("== field arithmetic ==")
x = zeta(5) + zeta(5, 4)  # 2 cos(2 pi / 5)
print("x                  =", x)
print("1/x                =", x.inverse())
print("x * 1/x            =", x * x.inverse())

print()
print("== Galois action ==")
r2 = sqrt_int(2)
print("sqrt(2)            =", r2, " (conductor", r2.conductor, ")")
print("sigma_3(sqrt 2)    =", r2.galois(3))
print("sigma_-1(sqrt 2)   =", r2.galois(-1), " (real, so fixed)")

print()
print("== roots of unity ==")
w = -zeta(3)
print("-z3 has order      =", w.root_of_unity_order())

print()
print("== float rendering (never a correctness path) ==")
print("sqrt(2) ~", r2.complex_eval())
half = Cyclotomic(1, {0: Fraction(1, 2)})
print("half is not an algebraic integer:", half.is_algebraic_integer)
