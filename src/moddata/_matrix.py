"""Tiny exact linear algebra over Cyclotomic, on tuples of tuples."""

from __future__ import annotations

from typing import Callable, Sequence

from .cyclotomic import Cyclotomic, ONE, ZERO, Scalar, dot

Matrix = tuple[tuple[Cyclotomic, ...], ...]


def eye(r: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(r)) for i in range(r)
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(dot((x, y) for x, y in zip(row, col) if x and y) for col in cols)
        for row in a
    )


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 1:
        return eye(len(a))
    out = a
    for _ in range(k - 1):
        out = matmul(out, a)
    return out


def entrywise(a: Matrix, f: Callable[[Cyclotomic], Cyclotomic]) -> Matrix:
    return tuple(tuple(f(v) for v in row) for row in a)


def conj(a: Matrix) -> Matrix:
    return entrywise(a, lambda v: v.conjugate())


def scale(a: Matrix, s: Scalar) -> Matrix:
    s = Cyclotomic._coerce(s)
    return entrywise(a, lambda v: v * s)


def scale_cols(a: Matrix, diag: Sequence[Scalar]) -> Matrix:
    """a @ diag(d) without materializing the diagonal matrix."""
    return tuple(
        tuple(v * Cyclotomic._coerce(d) for v, d in zip(row, diag)) for row in a
    )


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
