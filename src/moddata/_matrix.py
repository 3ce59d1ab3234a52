"""Tiny exact linear algebra over Cyclotomic, on tuples of tuples, and the one
exact check of the modular relation (ST)^3 = cS^2 (`_st_cubed_is`)."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

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


def scale(a: Matrix, s: Scalar) -> Matrix:
    s = Cyclotomic._coerce(s)
    return entrywise(a, lambda v: v * s)


def scale_cols(a: Matrix, diag: Sequence[Scalar]) -> Matrix:
    """a @ diag(d) without materializing the diagonal matrix."""
    return tuple(
        tuple(v * Cyclotomic._coerce(d) for v, d in zip(row, diag)) for row in a
    )


def _identity_multiple(m: Matrix) -> Optional[Cyclotomic]:
    """c with m = c Id, or None."""
    c = m[0][0]
    r = len(m)
    ok = all(m[i][j] == (c if i == j else ZERO) for i in range(r) for j in range(r))
    return c if ok else None


def _st_residual(s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic) -> Matrix:
    """R = T(ST)^2 - cS for T = diag(t): (ST)^3 - cS^2 = SR for every s.

    R_jk is one dot: sum_l (t_j s_jl t_l) (s_lk t_k) - c s_jk.  R is
    symmetric when s is (T is diagonal), and then only the entries with
    j <= k are formed; any other s has every entry formed."""
    r = len(s)
    symmetric = all(s[j][k] == s[k][j] for j in range(r) for k in range(j + 1, r))
    st, minus_c = scale_cols(s, t), -c
    cols = tuple(zip(*st))
    res = [[ZERO] * r for _ in range(r)]
    for j, (tj, st_row, s_row) in enumerate(zip(t, st, s)):
        tst_row = [tj * x for x in st_row]  # row j of TST
        for k in range(j if symmetric else 0, r):
            res[j][k] = dot(((minus_c, s_row[k]), *zip(tst_row, cols[k])))
            if symmetric:
                res[k][j] = res[j][k]
    return tuple(map(tuple, res))


def _st_cubed_is(s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic) -> bool:
    """(ST)^3 == cS^2: R = 0, or else SR = 0 (formed only when R != 0)."""
    res = _st_residual(s, t, c)
    return not any(map(any, res)) or not any(map(any, matmul(s, res)))
