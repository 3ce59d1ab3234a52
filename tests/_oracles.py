"""Independent float-side oracles shared by test modules.

PRINTED_TABLE_PI_FRACTIONS transcribes the degree <= 4 prime-power spectra
table directly as fractions of pi in the exponent (value = e^(i*pi*f)),
separately from the package's exact transcription.

The numpy_* functions are the fusion-tensor kernels as they stood when the
tensor was a numpy int64 array (einsum associativity, matrix-product
commutativity, np.ix_ relabelling). They oracle the pure-int kernels and
skip the calling test when numpy is not installed.

The fraction_* functions are the cyclotomic core as it stood when a value
stored a dict of Fraction coefficients: every product and sum rebuilt
integer numerators with fraction_integral and canonicalized back to
Fractions. A value there is an (order, {exponent: Fraction}) pair. They
share the exponent reduction and the descent step with the package, so
they oracle the integer-numerator representation, not the descent.

fraction_inverse is Cyclotomic.inverse as it stood before it used the
Galois norm: an extended Euclid of the power-basis polynomial against
Phi_n over Q[x], with Fraction polynomial arithmetic.

fraction_rational_kernel is the vanishing-sum kernel as it stood before it
was integer-only: Fraction Gauss-Jordan on the nonzero power-basis rows.
dense_rational_kernel is the one before that: the same elimination on a
dense phi(L) x m Fraction matrix, zero rows dropped afterwards.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from moddata.cyclotomic import (
    Cyclotomic,
    NotAUnitError,
    _check_order,
    _descend,
    _numerators_at,
    _reduce_exponents,
    _within_cap,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
)

PRINTED_TABLE_PI_FRACTIONS = {
    (2, "even", 2): [[0.0, 1.0]],
    (2, "odd", 3): [[0.0, 2 / 3], [2 / 3, 4 / 3], [4 / 3, 0.0]],
    (2, "odd", 4): [[1 / 2, 3 / 2]],
    (2, "odd", 5): [[2 / 5, 8 / 5], [4 / 5, 6 / 5]],
    (2, "even", 8): [[5 / 4, 7 / 4], [1 / 4, 3 / 4]],
    (2, "odd", 8): [[3 / 4, 5 / 4], [7 / 4, 1 / 4]],
    (3, "even", 3): [[2 / 3, 4 / 3, 0.0]],
    (3, "odd", 4): [[1 / 2, 1.0, 0.0], [3 / 2, 0.0, 1.0]],
    (3, "even", 4): [[1.0, 3 / 2, 1 / 2], [0.0, 1 / 2, 3 / 2]],
    (3, "even", 5): [[0.0, 2 / 5, 8 / 5], [0.0, 4 / 5, 6 / 5]],
    (3, "even", 7): [[4 / 7, 2 / 7, 8 / 7], [10 / 7, 12 / 7, 6 / 7]],
    (3, "odd", 8): [
        [1.0, 5 / 4, 1 / 4],
        [0.0, 1 / 4, 5 / 4],
        [1.0, 7 / 4, 3 / 4],
        [0.0, 3 / 4, 7 / 4],
    ],
    (3, "even", 8): [
        [3 / 2, 7 / 4, 3 / 4],
        [1 / 2, 3 / 4, 7 / 4],
        [1 / 2, 5 / 4, 1 / 4],
        [3 / 2, 1 / 4, 5 / 4],
    ],
    (3, "odd", 16): [
        [5 / 4, 1 / 8, 9 / 8],
        [1 / 4, 9 / 8, 1 / 8],
        [1 / 4, 5 / 8, 13 / 8],
        [5 / 4, 13 / 8, 5 / 8],
        [7 / 4, 3 / 8, 11 / 8],
        [3 / 4, 11 / 8, 3 / 8],
        [3 / 4, 15 / 8, 7 / 8],
        [7 / 4, 15 / 8, 7 / 8],
    ],
    (3, "even", 16): [
        [7 / 4, 5 / 8, 13 / 8],
        [3 / 4, 13 / 8, 5 / 8],
        [3 / 4, 9 / 8, 1 / 8],
        [7 / 4, 1 / 8, 9 / 8],
        [5 / 4, 15 / 8, 7 / 8],
        [1 / 4, 7 / 8, 15 / 8],
        [5 / 4, 3 / 8, 11 / 8],
        [1 / 4, 11 / 8, 3 / 8],
    ],
    (4, "odd", 5): [[2 / 5, 4 / 5, 6 / 5, 8 / 5]],
    (4, "even", 5): [[2 / 5, 4 / 5, 6 / 5, 8 / 5]],
    (4, "odd", 7): [
        [0.0, 2 / 7, 8 / 7, 4 / 7],
        [0.0, 12 / 7, 6 / 7, 10 / 7],
    ],
    (4, "odd", 8): [[1 / 4, 3 / 4, 5 / 4, 7 / 4]],
    (4, "even", 8): [[1 / 4, 3 / 4, 5 / 4, 7 / 4]],
    (4, "odd", 9): [
        [2 / 9, 8 / 9, 14 / 9, 2 / 3],
        [2 / 9, 8 / 9, 14 / 9, 4 / 3],
        [2 / 9, 8 / 9, 14 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 4 / 3],
        [16 / 9, 10 / 9, 4 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 2 / 3],
    ],
    (4, "even", 9): [
        [2 / 9, 8 / 9, 14 / 9, 2 / 3],
        [2 / 9, 8 / 9, 14 / 9, 4 / 3],
        [2 / 9, 8 / 9, 14 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 4 / 3],
        [16 / 9, 10 / 9, 4 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 2 / 3],
    ],
}


def match_rendered_spectra(rendered_sets, expected_sets, tol):
    """Greedy one-to-one matching of rendered value-sets against expected
    float sets; returns True iff a complete matching within tol exists."""
    if len(rendered_sets) != len(expected_sets):
        return False
    matched = set()
    for got in rendered_sets:
        hit = None
        for idx, exp in enumerate(expected_sets):
            if idx in matched:
                continue
            if len(got) == len(exp) and all(
                min(abs(g - e) for e in exp) < tol for g in got
            ):
                hit = idx
                break
        if hit is None:
            return False
        matched.add(hit)
    return True


def numpy_verify_invariants(fusion):
    """FusionRules.verify_invariants on a numpy int64 tensor."""
    np = pytest.importorskip("numpy")
    r, N, dual = fusion.rank, np.array(fusion.tensor, dtype=np.int64), fusion.dual
    bad = []
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if N[i, j, k] != N[j, i, k]:
                    bad.append(f"N[{i},{j}]^{k} != N[{j},{i}]^{k}")
                if N[i, j, k] != N[i, dual[k], dual[j]]:
                    bad.append(f"N[{i},{j}]^{k} != N[i,k*]^(j*)")
                if N[i, j, k] != N[dual[i], dual[j], dual[k]]:
                    bad.append(f"N[{i},{j}]^{k} != N[i*,j*]^(k*)")
            if N[i, j, 0] != (1 if dual[i] == j else 0):
                bad.append(f"N[{i},{j}]^0 != delta(i, j*)")
            if N[0, i, j] != (1 if i == j else 0):
                bad.append(f"N[0,{i}]^{j} != delta({i},{j})")
    assoc = np.einsum("ijm,mkl->ijkl", N, N) - np.einsum("jkm,iml->ijkl", N, N)
    if assoc.any():
        i, j, k, l = np.argwhere(assoc)[0]
        bad.append(f"associativity fails at ({i},{j},{k},{l})")
    mats = [N[i].T.copy() for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if not np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i]):
                bad.append(f"N_{i} and N_{j} do not commute")
    return bad


def numpy_grothendieck_equiv(f1, f2):
    """classifier.grothendieck_equiv by np.ix_ relabelling (rank budget aside)."""
    np = pytest.importorskip("numpy")
    if f1.rank != f2.rank:
        return None
    t1, t2 = np.array(f1.tensor, dtype=np.int64), np.array(f2.tensor, dtype=np.int64)
    for rest in permutations(range(1, f1.rank)):
        perm = np.array((0,) + rest)
        if np.array_equal(t2[np.ix_(perm, perm, perm)], t1):
            return tuple(int(v) for v in perm)
    return None


def numpy_relabel_fusion(fusion, perm):
    """classifier.relabel_fusion by np.ix_: (tensor as nested lists, dual)."""
    np = pytest.importorskip("numpy")
    r = fusion.rank
    inv = np.empty(r, dtype=int)
    for i, p in enumerate(perm):
        inv[p] = i
    tensor = np.array(fusion.tensor, dtype=np.int64)[np.ix_(inv, inv, inv)]
    dual = tuple(perm[fusion.dual[inv[i]]] for i in range(r))
    return tensor.tolist(), dual


def fraction_value(x: Cyclotomic):
    """The (order, Fraction coefficients) pair of a Cyclotomic."""
    return x.order, dict(x.items())


def fraction_integral(coeffs, step=1):
    """(numerators, common denominator) of coeffs, exponents scaled by step."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {e * step: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den


def fraction_canonical(n, nums, den):
    """Conductor and coefficients of sum(nums[e] * zeta_n^e) / den."""
    nums = _reduce_exponents(n, nums)
    if not set(nums) - {0}:
        n = 1  # zero or rational
    changed = True
    while changed and n > 1:
        changed = False
        for p in factorize(n):
            step = _descend(n, p, nums)
            if step is not None:
                (nums, k), n, changed = step, n // p, True
                den *= k
                break
    return n, {e: Fraction(c, den) for e, c in nums.items()}


def fraction_dot(pairs):
    """sum(a * b for a, b in pairs) for pairs of (order, coeffs) values."""
    terms = [(a, b) for a, b in pairs if a[1] and b[1]]
    if not terms:
        return 1, {}
    n = lcm(*(v[0] for pair in terms for v in pair))
    if len(terms) > 1 and not _within_cap(n):
        return fraction_twisted_sum(1, [(0, fraction_dot([pair])) for pair in terms], 0)
    _check_order(n)
    scaled = [
        (fraction_integral(a[1], n // a[0]), fraction_integral(b[1], n // b[0]))
        for a, b in terms
    ]
    den = lcm(*(da * db for (_, da), (_, db) in scaled))
    prod = {}
    for (left, da), (right, db) in scaled:
        f = den // (da * db)
        for e1, c1 in left.items():
            c1 *= f
            for e2, c2 in right.items():
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
    return fraction_canonical(n, prod, den)


def fraction_twisted_sum(n, terms, shift):
    """sum(x * zeta_n^(shift * s) for s, x in terms), x an (order, coeffs) value."""
    terms = [(s, x) for s, x in terms if x[1]]
    if not terms:
        return 1, {}
    if len(terms) == 1 and terms[0][0] * shift % n == 0:
        return terms[0][1]
    m = lcm(n, *(x[0] for _, x in terms))
    _check_order(m)
    scaled = [(fraction_integral(x[1], m // x[0]), s) for s, x in terms]
    den = lcm(*(d for (_, d), _ in scaled))
    step = shift * (m // n)
    nums = {}
    for (part, d), s in scaled:
        f, offset = den // d, s * step
        for e, c in part.items():
            e += offset
            nums[e] = nums.get(e, 0) + c * f
    return fraction_canonical(m, nums, den)


def fraction_galois(x, k):
    """sigma_k of an (order, coeffs) value."""
    n, coeffs = x
    k %= n
    if gcd(k, n) != 1:
        raise NotAUnitError(f"{k} is not a unit modulo {n}")
    if k == 1:
        return x
    return n, _reduce_exponents(n, {(k * e) % n: c for e, c in coeffs.items()})


def fraction_str(x):
    """Cyclotomic.__str__ of an (order, coeffs) value."""
    order, coeffs = x
    if not coeffs:
        return "0"
    parts = []
    for e, c in sorted(coeffs.items()):
        if e == 0:
            parts.append(str(c))
        else:
            z = f"z{order}" if e == 1 else f"z{order}^{e}"
            parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def fraction_json(x):
    """Cyclotomic.to_json of an (order, coeffs) value."""
    order, coeffs = x
    return {"order": order, "coeffs": {str(e): str(c) for e, c in sorted(coeffs.items())}}


def fraction_inverse(x: Cyclotomic) -> Cyclotomic:
    """x^-1 from u with u*f + v*Phi_n = 1 in Q[x], f the power-basis
    polynomial of x; raises ZeroDivisionError on 0."""
    if not x:
        raise ZeroDivisionError("division by zero cyclotomic")
    n, den = x.order, x._den
    if n == 1:
        return Cyclotomic.from_rational(Fraction(den, x._nums[0]))
    f = [Fraction(x._nums.get(e, 0), den) for e in range(euler_phi(n))]
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(n)], f
    u0, u1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            break
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
    c = r1[0]  # nonzero constant: gcd(f, Phi_n) = 1 in Q[x]
    return Cyclotomic(n, {e: u / c for e, u in enumerate(u1) if u})


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / lead
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def fraction_rational_kernel(columns: list[Cyclotomic]) -> list[tuple[Fraction, ...]]:
    """Basis of {x in Q^m : sum x_c columns[c] = 0}, by exact elimination."""
    order = lcm(*(col.order for col in columns))
    m = len(columns)
    # only the nonzero rows, one per exponent on the power basis of Q_order
    rows: dict[int, list[Fraction]] = {}
    for c, col in enumerate(columns):
        lifted, den = _numerators_at(col, order)
        for e, q in lifted.items():
            if e not in rows:
                rows[e] = [Fraction(0)] * m
            rows[e][c] = Fraction(q, den)
    pivots: list[int] = []
    piv_row = 0
    work = list(rows.values())
    for col in range(m):
        sel = next((r for r in range(piv_row, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[piv_row], work[sel] = work[sel], work[piv_row]
        inv = 1 / work[piv_row][col]
        work[piv_row] = [v * inv for v in work[piv_row]]
        for r in range(len(work)):
            if r != piv_row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[piv_row])]
        pivots.append(col)
        piv_row += 1
    basis = []
    free = [c for c in range(m) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis


def dense_rational_kernel(columns):
    """The kernel before fraction_rational_kernel: a dense phi(L) x m
    Fraction matrix, zero rows dropped afterwards, then the same
    Gauss-Jordan elimination."""
    order = 1
    for col in columns:
        order = lcm(order, col.order)
    dim = euler_phi(order)
    rows = [[Fraction(0)] * len(columns) for _ in range(dim)]
    for c, col in enumerate(columns):
        step = order // col.order
        lifted = _reduce_exponents(order, {e * step: q for e, q in col.items()})
        for e, q in lifted.items():
            rows[e][c] = q
    m = len(columns)
    pivots = []
    piv_row = 0
    work = [row[:] for row in rows if any(row)]
    for col in range(m):
        sel = next((r for r in range(piv_row, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[piv_row], work[sel] = work[sel], work[piv_row]
        inv = 1 / work[piv_row][col]
        work[piv_row] = [v * inv for v in work[piv_row]]
        for r in range(len(work)):
            if r != piv_row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[piv_row])]
        pivots.append(col)
        piv_row += 1
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis
