"""Tiny exact linear algebra over Cyclotomic, on tuples of tuples; the one
way to decide that entries vanish from residues (`_first_nonzero`); and the
one check of the modular relation (ST)^3 = cS^2 (`_st_cubed_is`)."""

from __future__ import annotations

from itertools import islice
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    Scalar,
    _check_order,
    _embedding,
    _order_info,
    _residue,
    dot,
)

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


def _size(values: Iterable[Cyclotomic]) -> tuple[int, int]:
    """(h, d): d is the lcm of the denominators, and d v = sum c_e zeta^e with
    sum |c_e| <= h for every value v."""
    values = list(values)
    d = lcm(*(v._den for v in values))
    return max(sum(map(abs, v._nums.values())) * (d // v._den) for v in values), d


def _l1_bound(*terms: tuple) -> int:
    """B >= |sigma(L X)| for every embedding sigma, for X a sum of products
    and L the lcm of the products of denominators: each term (count, size,
    ...) stands for at most count products, each of one value of every _size
    given, times roots of unity.  A value of _size (h, d) is P/d with
    |sigma(P)| <= l1(P) <= h, and a root of unity has |sigma| = 1."""
    dens = [prod(d for _, d in sizes) for _, *sizes in terms]
    big = lcm(*dens)
    return sum(
        count * prod(h for h, _ in sizes) * (big // den)
        for (count, *sizes), den in zip(terms, dens)
    )


def _first_nonzero(
    values: Sequence[Cyclotomic],
    bound: int,
    entries: Callable[[int, tuple[int, tuple[int, ...]]], Iterator[int]],
) -> Optional[int]:
    """The index of the first of the entries X_0, X_1, ... that is not 0, or
    None when all are 0, decided from residues.

    Every X_i is a polynomial in values, which lie in Q(zeta_n) for n the
    lcm of their orders, and bound >= |sigma(L X_i)| for every embedding
    sigma, for an L that makes L X_i an algebraic integer and whose primes
    divide the denominators of values (as _l1_bound gives it).
    entries(n, emb) yields the residue of each X_i, by _residue, at
    emb = _embedding(n, k).

    A residue that is not 0 mod ell proves X_i != 0.  A residue 0 puts
    L X_i in a prime of norm ell, so ell divides the norm N(L X_i), the
    product of its phi(n) embeddings: |N(L X_i)| <= bound^phi(n).  Once the
    primes used multiply past that, N(L X_i) can only be 0, so X_i = 0.
    No verdict rests on a random choice.
    """
    n = lcm(*(v.order for v in values))
    _check_order(n)
    den = lcm(*(v._den for v in values))
    need = bound ** _order_info(n)[0]
    first, covered, k = None, 1, 0
    while covered <= need and first != 0:
        emb = _embedding(n, k)
        k += 1
        ell = emb[0]
        if den % ell == 0:
            continue  # zeta_n -> g is not defined on the values
        # past a nonzero entry only the entries before it are still open
        for index, x in enumerate(islice(entries(n, emb), first)):
            if x % ell:
                first = index
                break
        covered *= ell
    return first


def _square_is_identity(a: Matrix) -> bool:
    """a^2 == Id, decided from residues."""
    size = _size(v for row in a for v in row)

    def entries(n, emb):
        rows = [[_residue(v, n, emb) for v in row] for row in a]
        cols = list(zip(*rows))
        for i, row in enumerate(rows):
            nonzero = [(l, x) for l, x in enumerate(row) if x]
            for j, col in enumerate(cols):
                yield sum(x * col[l] for l, x in nonzero) - (i == j)

    bound = _l1_bound((len(a), size, size), (1,))
    return _first_nonzero([v for row in a for v in row], bound, entries) is None


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


def _st_first_nonzero(
    s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic
) -> Optional[tuple[int, int]]:
    """(j, k) of the first entry of R = T(ST)^2 - cS that is not 0, or None
    when R = 0, decided from residues of R_jk = t_j t_k sum_l t_l s_jl s_lk
    - c s_jk.  When s is symmetric so is R, and only k >= j is read."""
    r = len(s)
    symmetric = all(s[j][k] == s[k][j] for j in range(r) for k in range(j + 1, r))
    pairs = [(j, k) for j in range(r) for k in range(j if symmetric else 0, r)]
    flat = [v for row in s for v in row]
    s_size, c_size = _size(flat), _size([c])
    # x conj(x) = 1 in an abelian field gives |sigma(x)| = 1 for every sigma;
    # with denominator 1 as well, x is a root of unity
    roots = all(v._den == 1 and v * v.conjugate() == ONE for v in t)
    t_size = (1, 1) if roots else _size(t)

    def entries(n, emb):
        ell = emb[0]
        rs = [[_residue(v, n, emb) for v in row] for row in s]
        rt = [_residue(v, n, emb) for v in t]
        rc = _residue(c, n, emb)
        cols = list(zip(*rs))
        st = [[x * y % ell for x, y in zip(row, rt)] for row in rs]
        for j, k in pairs:
            yield rt[j] * rt[k] * sum(map(mul, st[j], cols[k])) - rc * rs[j][k]

    bound = _l1_bound((r, t_size, t_size, t_size, s_size, s_size), (1, c_size, s_size))
    index = _first_nonzero([*flat, *t, c], bound, entries)
    return None if index is None else pairs[index]


def _st_cubed_is(s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic) -> bool:
    """(ST)^3 == cS^2: R = 0, or else SR = 0 (R formed exactly only when it
    is not 0)."""
    if _st_first_nonzero(s, t, c) is None:
        return True
    return not any(map(any, matmul(s, _st_residual(s, t, c))))
