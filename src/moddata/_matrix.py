"""Tiny exact linear algebra over Cyclotomic, on tuples of tuples, and the one
way to decide a matrix identity, from residues (`_first_nonzero`): a^k = cP
for a permutation P (`_power_permutation`, `_square_and_fourth`) and (ST)^3 =
cS^2 (`_st_cubed_is`) among them.  `matmul` and `mat_pow` serve only the tests
and perfbench."""

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


def _size(values: Iterable[Cyclotomic]) -> tuple[int, int]:
    """(h, d): d is the lcm of the denominators, and d v = sum c_e zeta^e with
    sum |c_e| <= h for every value v."""
    values = list(values)
    d = lcm(*(v._den for v in values))
    return max(sum(map(abs, v._nums.values())) * (d // v._den) for v in values), d


def _root_size(values: Iterable[Cyclotomic]) -> tuple[int, int]:
    """_size, with l1 1 for each root of unity x: |sigma(x)| = 1 for every
    sigma, so |sigma(d x)| = d, where the power basis can give x an l1 of
    phi(n).  The test, x = +-zeta^e exactly, runs once per distinct value."""
    values = set(values)
    d = lcm(*(v._den for v in values))
    return max(
        (1 if v._root_of_unity_parts() else sum(map(abs, v._nums.values()))) * (d // v._den)
        for v in values
    ), d


def _l1_bound(*terms: tuple) -> int:
    """B >= |sigma(L X)| for every embedding sigma, for X a sum of products
    and L the lcm of the products of denominators: each term (count, size,
    ...) stands for at most count products, each of one value of every _size
    given, times roots of unity.  A value of _size or _root_size (h, d) is P/d
    with |sigma(P)| <= h, and a root of unity has |sigma| = 1."""
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


def _power_permutation(a: Matrix, k: int, c: Cyclotomic) -> Optional[tuple[int, ...]]:
    """p with a^k = cP, P_ij = [j = p(i)], for k = 2 or 4; None when there is
    none or c = 0.  p is read off a^k mod ell at the first prime where c is
    not 0, and the entries (a^k)_ij - c [j = p(i)] are certified 0 (before
    that prime they are (a^k)_ij, whatever p is)."""
    r, flat = len(a), [v for row in a for v in row]
    perm: list[int] = []

    def entries(n, emb):
        ell, power = emb[0], [[_residue(v, n, emb) for v in row] for row in a]
        for _ in range(k // 2):
            cols = list(zip(*power))
            power = [[sum(map(mul, row, col)) % ell for col in cols] for row in power]
        rc = _residue(c, n, emb)
        if rc and not perm:
            perm.extend(row.index(rc) if rc in row else -1 for row in power)
            if sorted(perm) != list(range(r)):
                yield 1  # no permutation fits at ell
                return
        for i, row in enumerate(power):
            row[perm[i] if perm else 0] -= rc  # rc = 0 until p is read
            yield from row

    bound = _l1_bound((r ** (k - 1), *[_size(flat)] * k), (1, _size([c])))
    if _first_nonzero([*flat, c], bound, entries) is not None:
        return None
    return tuple(perm) or None


def _square_and_fourth(s: Matrix) -> tuple[Optional[Cyclotomic], Optional[Cyclotomic]]:
    """(c2, c4) with s^2 = c2 Id and s^4 = c4 Id, None for no such c.  With
    c2 = (s^2)_00 (one dot), s^2 = c2 P for a permutation P, decided from
    residues, gives c2 if P = Id and c4 = c2^2 if P^2 = Id.  Only otherwise
    is c4 = (s^4)_00 formed by dots and s^4 = c4 Id decided from residues."""
    cols, identity = list(zip(*s)), tuple(range(len(s)))
    c2 = dot(zip(s[0], cols[0]))
    perm = _power_permutation(s, 2, c2)
    if perm is not None:
        involution = all(perm[q] == i for i, q in enumerate(perm))
        return (c2 if perm == identity else None), (c2 * c2 if involution else None)
    row, col = [dot(zip(s[0], v)) for v in cols], [dot(zip(v, cols[0])) for v in s]
    c4 = dot(zip(row, col))  # (s^2)_0l and (s^2)_l0 give (s^4)_00
    return None, (c4 if _power_permutation(s, 4, c4) == identity else None)


def _st_residues(s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic):
    """R = T(ST)^2 - cS, so that (ST)^3 - cS^2 = SR: the values R is a
    polynomial in, a bound B >= |sigma(L R_jk)| as _l1_bound gives it, and
    residues(n, emb, pairs): s mod ell and the list of R_jk = t_j t_k sum_l
    t_l s_jl s_lk - c s_jk mod ell for (j, k) in pairs."""
    flat = [v for row in s for v in row]
    s_size, c_size, t_size = _size(flat), _size([c]), _root_size(t)
    bound = _l1_bound((len(s), t_size, t_size, t_size, s_size, s_size), (1, c_size, s_size))

    def residues(n, emb, pairs):
        ell, rs = emb[0], [[_residue(v, n, emb) for v in row] for row in s]
        rt, rc = [_residue(v, n, emb) for v in t], _residue(c, n, emb)
        cols = list(zip(*rs))
        st = [[x * y % ell for x, y in zip(row, rt)] for row in rs]
        r_jk = (rt[j] * rt[k] * sum(map(mul, st[j], cols[k])) - rc * rs[j][k] for j, k in pairs)
        return rs, [x % ell for x in r_jk]

    return [*flat, *t, c], bound, residues


def _st_first_nonzero(
    s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic
) -> Optional[tuple[int, int]]:
    """(j, k) of the first entry of R = T(ST)^2 - cS that is not 0, or None
    when R = 0, decided from residues.  When s is symmetric so is R, and
    only k >= j is read."""
    r = len(s)
    symmetric = all(s[j][k] == s[k][j] for j in range(r) for k in range(j + 1, r))
    pairs = [(j, k) for j in range(r) for k in range(j if symmetric else 0, r)]
    values, bound, residues = _st_residues(s, t, c)
    index = _first_nonzero(values, bound, lambda n, emb: residues(n, emb, pairs)[1])
    return None if index is None else pairs[index]


def _st_cubed_is(s: Matrix, t: Sequence[Cyclotomic], c: Cyclotomic) -> bool:
    """(ST)^3 == cS^2: R = 0, or else (ST)^3 - cS^2 = SR = 0, each decided
    from residues.  SR = 0 with R != 0 needs a singular s."""
    if _st_first_nonzero(s, t, c) is None:
        return True
    r = len(s)
    values, bound, residues = _st_residues(s, t, c)
    pairs = [(j, k) for j in range(r) for k in range(r)]

    def entries(n, emb):
        rs, res = residues(n, emb, pairs)
        cols = [res[k::r] for k in range(r)]
        return [sum(map(mul, row, col)) for row in rs for col in cols]

    # d L (SR)_ik = sum_l (d s_il)(L R_lk), d the denominator of _size(s)
    return _first_nonzero(values, r * _size(values[: r * r])[0] * bound, entries) is None
