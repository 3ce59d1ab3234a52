"""Exact matrices over Cyclotomic, as tuples of tuples, and the one way to
decide a matrix identity, from residues (`_first_nonzero`): S^k = cP for a
permutation P (`_power_permutation`, `_square_and_fourth`) and (ST)^3 = cS^2
(`_st_cubed_is`) among them.  Each takes its matrix as one record, facts =
modular_data._SFacts, and reads S, its entries and its tables mod ell from
it; it states what it multiplies as terms (count, group, ...), and only
`_first_nonzero` turns them into a norm bound, with one size rule (`_size`:
a root of unity has l1 1).  No scaled matrix is formed here: a lift's
s = lam S is formed only when read (sl2z_reps.ModularRep.s).  `eye`,
`matmul` and `mat_pow` serve only the tests and perfbench."""

from __future__ import annotations

from itertools import islice
from math import lcm, prod
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    _check_order,
    _embedding,
    _order_info,
    _residue,
    dot,
)

if TYPE_CHECKING:  # modular_data imports this module
    from .modular_data import _SFacts

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


def _size(group: Iterable[Cyclotomic]) -> tuple[int, int]:
    """(h, d) with |sigma(d v)| <= h for every value v of group and every
    embedding sigma, d the lcm of the denominators.  One rule: a root of
    unity has l1 1, since |sigma(v)| = 1 where its power-basis l1 can be
    phi(n); any other d v = sum c_e zeta^e has l1 sum |c_e|.  The distinct
    values are read from the largest power-basis l1 down, and the root test
    runs only while that l1 exceeds h: below it no value can raise h."""
    values = set(group)
    d = lcm(*(v._den for v in values))
    h = 0
    l1s = sorted(((sum(map(abs, v._nums.values())) * (d // v._den), v) for v in values), key=itemgetter(0))
    while l1s and l1s[-1][0] > h:
        l1, v = l1s.pop()
        h = d if v._root_of_unity_parts() else l1  # h was 0 or d
    return h, d


def _bound(terms: Sequence[tuple]) -> tuple[int, int, int]:
    """(n, den, B) for X a sum of terms (count, group, ...), each at most
    count products of one value of every group, times roots of unity: the
    values lie in Q(zeta_n), den is the lcm of their denominators, and
    B >= |sigma(L X)| for every embedding sigma, for L the lcm over the
    terms of the product of the d of their groups (_size).  A group that
    appears more than once, as one object, is sized once."""
    groups = {id(group): group for _, *gs in terms for group in gs}
    sizes = {key: _size(group) for key, group in groups.items()}
    n = lcm(*(v.order for group in groups.values() for v in group))
    dens = [prod(sizes[id(group)][1] for group in gs) for _, *gs in terms]
    big = lcm(*dens)
    bound = sum(
        count * prod(sizes[id(group)][0] for group in gs) * (big // den)
        for (count, *gs), den in zip(terms, dens)
    )
    return n, lcm(*(d for _, d in sizes.values())), bound


def _first_nonzero(
    terms: Sequence[tuple],
    entries: Callable[[int, tuple[int, tuple[int, ...]]], Iterator[int]],
) -> Optional[int]:
    """The index of the first of the entries X_0, X_1, ... that is not 0, or
    None when all are 0, decided from residues.

    Every X_i is a sum of terms (count, group, ...): at most count products
    of one value from each group (a sequence of Cyclotomic), times roots of
    unity.  From them _bound gives n, the lcm of the orders of the values,
    and B >= |sigma(L X_i)| for every embedding sigma, for an L that makes
    L X_i an algebraic integer and whose primes divide the denominators.
    entries(n, emb) yields the residue of each X_i, by _residue, at
    emb = _embedding(n, k).

    A residue that is not 0 mod ell proves X_i != 0.  A residue 0 puts
    L X_i in a prime of norm ell, so ell divides the norm N(L X_i), the
    product of its phi(n) embeddings: |N(L X_i)| <= B^phi(n).  Once the
    primes used multiply past that, N(L X_i) can only be 0, so X_i = 0.
    No verdict rests on a random choice.
    """
    n, den, bound = _bound(terms)
    _check_order(n)
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


def _power_permutation(facts: _SFacts, k: int, c: Cyclotomic) -> Optional[tuple[int, ...]]:
    """p with S^k = cP, P_ij = [j = p(i)], for k = 2 or 4; None when there is
    none or c = 0.  p is read off S^k mod ell at the first prime where c is
    not 0, and the entries (S^k)_ij - c [j = p(i)] are certified 0 (before
    that prime they are (S^k)_ij, whatever p is), in the product rows."""
    r, flat = len(facts.S), facts.flat
    perm: list[int] = []

    def entries(n, emb):
        ell, power = emb[0], facts.residues(emb)
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

    if _first_nonzero(((r ** (k - 1), *[flat] * k), (1, [c])), entries) is not None:
        return None
    return tuple(perm) or None


def _square_and_fourth(facts: _SFacts) -> tuple[Optional[Cyclotomic], Optional[Cyclotomic]]:
    """(c2, c4) with S^2 = c2 Id and S^4 = c4 Id, None for no such c.  With
    c2 = (S^2)_00 (one dot), S^2 = c2 P for a permutation P, decided from
    residues, gives c2 if P = Id and c4 = c2^2 if P^2 = Id.  Only otherwise
    is c4 = (S^4)_00 formed by dots and S^4 = c4 Id decided from residues."""
    s, cols, identity = facts.S, list(zip(*facts.S)), tuple(range(len(facts.S)))
    c2 = dot(zip(s[0], cols[0]))
    perm = _power_permutation(facts, 2, c2)
    if perm is not None:
        involution = all(perm[q] == i for i, q in enumerate(perm))
        return (c2 if perm == identity else None), (c2 * c2 if involution else None)
    row, col = [dot(zip(s[0], v)) for v in cols], [dot(zip(v, cols[0])) for v in s]
    c4 = dot(zip(row, col))  # (S^2)_0l and (S^2)_l0 give (S^4)_00
    return None, (c4 if _power_permutation(facts, 4, c4) == identity else None)


def _st_residues(facts: _SFacts, t: Sequence[Cyclotomic], c: Cyclotomic, pairs: list[tuple[int, int]]):
    """R = T(ST)^2 - cS, so that (ST)^3 - cS^2 = SR: residues(n, emb) lists
    R_jk = t_j t_k sum_l t_l S_jl S_lk - c S_jk mod ell for (j, k) in
    pairs, with S mod ell read from facts.residues(emb)."""

    def residues(n, emb):
        ell, rs = emb[0], facts.residues(emb)
        rt, rc = [_residue(v, n, emb) for v in t], _residue(c, n, emb)
        cols = list(zip(*rs))
        st = [[x * y % ell for x, y in zip(row, rt)] for row in rs]
        return [(rt[j] * rt[k] * sum(map(mul, st[j], cols[k])) - rc * rs[j][k]) % ell for j, k in pairs]

    return residues


def _st_first_nonzero(facts: _SFacts, t: Sequence[Cyclotomic], c: Cyclotomic) -> Optional[tuple[int, int]]:
    """(j, k) of the first entry of R = T(ST)^2 - cS that is not 0, or None
    when R = 0, decided from residues.  When S is symmetric so is R, and
    only k >= j is read."""
    s, r, flat = facts.S, len(facts.S), facts.flat
    symmetric = all(s[j][k] == s[k][j] for j in range(r) for k in range(j + 1, r))
    pairs = [(j, k) for j in range(r) for k in range(j if symmetric else 0, r)]
    terms = ((r, t, t, t, flat, flat), (1, [c], flat))
    index = _first_nonzero(terms, _st_residues(facts, t, c, pairs))
    return None if index is None else pairs[index]


def _sr_is_zero(facts: _SFacts, t: Sequence[Cyclotomic], c: Cyclotomic) -> bool:
    """(ST)^3 - cS^2 = SR = 0, decided from residues; read once R != 0 is
    known, since SR = 0 with R != 0 needs a singular S."""
    r, flat = len(facts.S), facts.flat
    residues = _st_residues(facts, t, c, [(j, k) for j in range(r) for k in range(r)])

    def entries(n, emb):
        res = residues(n, emb)
        cols = [res[k::r] for k in range(r)]
        return [sum(map(mul, row, col)) for row in facts.residues(emb) for col in cols]

    # (SR)_ik = sum_l S_il R_lk: r times each product of R, times an S_il
    terms = ((r * r, flat, t, t, t, flat, flat), (r, flat, [c], flat))
    return _first_nonzero(terms, entries) is None


def _st_cubed_is(facts: _SFacts, t: Sequence[Cyclotomic], c: Cyclotomic) -> bool:
    """(ST)^3 == cS^2: R = 0, or else SR = 0 (DerivedScalars.st_cubed for a datum)."""
    return _st_first_nonzero(facts, t, c) is None or _sr_is_zero(facts, t, c)
