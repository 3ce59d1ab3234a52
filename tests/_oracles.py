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

g_matrix, orbit_field_degree, unit_quotient_shape and relabel_fusion were
public package functions whose only callers were tests. g_matrix oracles
galois.sign_function, unit_quotient_shape oracles
field_theory.enumerate_levels, and orbit_field_degree checks the orbit
lemma [K_j : Q] = |<j>| on GaloisProfile.orbits.

mpmath_complex_eval is Cyclotomic.complex_eval as it stood when it used
mpmath: the sum of c_e e^(2 pi i e/n) at 30 decimal places, each part
converted to a double. It oracles the fixed-point evaluation behind
complex_eval and real_sign, and skips the calling test when mpmath is not
installed.

embedding_descend is cyclotomic._descend as it stood before it tested
membership in Q_m with one Galois image: for p not dividing m it projected
by the trace to Q_m, embedded the result back at order n and compared it
with the input.  embedding_canonical is cyclotomic._canonical with that
descent step; it oracles the one-automorphism test.

matmul_projectively_unitary, separate_check_balancing and
matmul_st_residual are the exact identities as they stood before each
entry became one dot of the difference: S conj(S) as a full matmul
compared with D^2 Id, theta_i theta_j S_ij and its right side
canonicalised apart, and R from matmul(ST, ST) and a second dot per entry.

dense_st_cubed_is is the dense form of the modular relation as it stood
before the residual check: (ST)^3 from two r x r products, compared with cS^2.
It oracles _matrix._st_cubed_is.

dot_projectively_unitary, dot_check_balancing, dot_check_twist_equation,
dot_st_cubed_is, matmul_square_is_identity and dot_verlinde_fusion are the
exact identities as they stood before they were decided from residues at
primes ell = 1 mod n: each entry one exact dot (one matmul for a^2 = Id),
canonicalised and compared with 0, and the Verlinde tensor from one dot per
N_ij^k.  The (ST)^3 forms take R from matmul_st_residual, and SR from one
more matmul.  They oracle modular_data._projectively_unitary,
check_balancing, check_twist_equation, verlinde_fusion and
_matrix._st_cubed_is and _power_permutation.  matmul_power_permutation
reads a^k = cP off mat_pow for _matrix._power_permutation.

cyclotomic_polynomial was a package function whose only callers were
tests: Phi_n read off the package's first reduction row, x^phi(n) mod Phi_n
= x^phi(n) - Phi_n.

scale_cols and identity_multiple are the _matrix helpers those exact forms
used, kept here once no verdict in the package formed a matrix product:
a diag(d) by columns, and the c with m = c Id.

entrywise and scale are the _matrix helpers that formed each lift's s =
lam S as a full matrix of products, kept here once a lift stored S and lam
and formed s only when read, one product per distinct entry of S.
scale(S, lam) oracles sl2z_reps.ModularRep.s.

cyclotomic_poly_squarefree is cyclotomic._cyclotomic_poly_squarefree as it
stood before it built Phi_r one prime at a time: x^r - 1 divided by Phi_d
for every proper divisor d of r, each Phi_d built again by the same
recursion.

product_twists is the lift's t as it stood when ModularRep stored it as
values: t_i = mu theta_i for mu = zeta_12^a / zeta by Cyclotomic products,
zeta the anomaly's sixth root, and the level as the lcm of the orders that
root_of_unity_log reads off each t_i.  twist_exponents is that log pass on
its own: (level, exponents) of any tuple of roots of unity.  They oracle the
exponent arithmetic of sl2z_reps._lifts.

p3_levels is field_theory.enumerate_levels on p = 3 as it stood before it
counted each distinct exponent once: for each index it rebuilt the list of
the other q = 2*3^r + 1, quadratic in the number of exponents.

dual_from_s is the charge conjugation as it stood before galois built it on
the character-column matcher: its own column index, conjugating each column.

root_pair_class is the class of a pair of roots of unity under Galois, signs
and swap, found by brute force over the units at the pair's order.  It
oracles classifier._pair_class, which keys the class by a formula.

spectra_connectivity, signed_perm_match, orbits_from_perms, generate and
smooth_residues are the package's graph walks as they stood before they
shared galois._components and modular_data._closure: a DFS over adjacency
sets of t-eigenvalue labels, a sign DFS that tested every edge before the
full check, a union-find over permutation cycles, and two BFS closures.

lift is classifier._lift, kept here once only the tests called it: Cyclotomic
columns as integer columns on one power basis, the form that
classifier._all_nonzero_solution_exists takes.

kernel_all_nonzero_solution_exists is classifier._all_nonzero_solution_exists
as it stood before it looked for a row owned by one column: the kernel from
classifier._integer_kernel, non-empty and no coordinate identically 0.  It
oracles the support shortcut.

oracle_profile is galois.compute_profile(datum) as it stood before h_sigma
was read from residues on generators of the units: every character value
S_ia / S_0a a canonical Cyclotomic, and h_sigma matched exactly for every
unit mod the conductor.  Its orbits come from orbits_from_perms.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

import pytest

from moddata import _matrix as mat
from moddata.classifier import _integer_kernel, _reindexed
from moddata.cyclotomic import (
    Cyclotomic,
    NotAUnitError,
    _check_order,
    _descend,
    _numerators_at,
    _poly_div_exact,
    _reduce_exponents,
    _reduction_rows,
    _within_cap,
    divisors,
    ONE,
    ZERO,
    dot,
    euler_phi,
    factorize,
    is_prime,
    units_mod,
    zeta,
)
from moddata.modular_data import (
    DegenerateSError,
    FusionRules,
    ModularDatum,
    NotFusionIntegral,
    Verdict,
    _characters,
    _exact_tensor,
    _match_permutation,
    compose,
    derived_scalars,
)
from moddata.sl2z_reps import SignedPermutation

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
    """relabel_fusion by np.ix_: (tensor as nested lists, dual)."""
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


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, little-endian, monic of degree phi(n)."""
    return (*(-c for c in _reduction_rows(n)[0]), 1)


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


def g_matrix(rep, k):
    """G_sigma = sigma(s) s^(-1) = sigma(s) s^3; a signed permutation matrix."""
    sigma_s = tuple(tuple(v.galois(k) for v in row) for row in rep.s)
    return mat.matmul(sigma_s, mat.mat_pow(rep.s, 3))


def orbit_field_degree(datum, j):
    """Degree over Q of K_j = Q(S_ij / S_0j : i)."""
    assert datum.S[0][j], f"characters undefined: S[0][{j}] = 0"
    inv = datum.S[0][j].inverse()
    gens = [datum.S[i][j] * inv for i in range(datum.rank)]
    cond = lcm(*(g.order for g in gens))
    fixing = sum(1 for k in units_mod(cond) if all(g.galois(k) == g for g in gens))
    return euler_phi(cond) // fixing


def unit_quotient_shape(n):
    """Prime-power decomposition of (Z/nZ)^x / (its maximal elementary
    2-subgroup), sorted."""
    cyclic = []
    for q, e in factorize(n).items():
        if q == 2:
            if e == 2:
                cyclic.append(2)
            elif e >= 3:
                cyclic.extend([2, 2 ** (e - 2)])
        else:
            cyclic.append((q - 1) * q ** (e - 1))
    shape = []
    for d in cyclic:
        d //= gcd(d, 2)
        for q, e in factorize(d).items():
            shape.append(q**e)
    return tuple(sorted(shape))


def p3_levels(rs):
    """Levels of the p = 3 shape with exponents rs, by the per-index loop."""
    out = set()
    qs = [2 * 3**r + 1 for r in rs]
    if len(set(qs)) == len(qs) and all(is_prime(q) for q in qs):
        core = prod(qs)
        out.update(f * core for f in divisors(24))
    for i, r in enumerate(rs):
        others = [q for j, q in enumerate(qs) if j != i]
        if len(set(others)) == len(others) and all(is_prime(q) for q in others):
            core = 3 ** (r + 1) * prod(others)
            out.update(f * core for f in divisors(8))
    return frozenset(out)


def relabel_fusion(f, perm):
    """The fusion rules with label i renamed perm[i] (perm[0] = 0)."""
    r = f.rank
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i
    dual = tuple(perm[f.dual[inv[i]]] for i in range(r))
    return FusionRules(r, _reindexed(f.tensor, inv), dual)


def scale_cols(a, diag):
    """a @ diag(d) without materializing the diagonal matrix."""
    return tuple(tuple(v * Cyclotomic._coerce(d) for v, d in zip(row, diag)) for row in a)


def entrywise(a, f):
    return tuple(tuple(f(v) for v in row) for row in a)


def scale(a, s):
    s = Cyclotomic._coerce(s)
    return entrywise(a, lambda v: v * s)


def cyclotomic_poly_squarefree(r):
    if r == 1:
        return [-1, 1]
    f = [0] * (r + 1)
    f[0], f[r] = -1, 1
    for d in divisors(r)[:-1]:
        f = _poly_div_exact(f, cyclotomic_poly_squarefree(d))
    return f


def identity_multiple(m):
    """c with m = c Id, or None."""
    c, r = m[0][0], len(m)
    ok = all(m[i][j] == (c if i == j else ZERO) for i in range(r) for j in range(r))
    return c if ok else None


def dense_st_cubed_is(s, t, c):
    """(ST)^3 == cS^2 for T = diag(t), by mat_pow."""
    return mat.mat_pow(scale_cols(s, t), 3) == scale(mat.matmul(s, s), c)


def twist_exponents(t):
    """(level, exponents) of diag(t) from each entry's root-of-unity log."""
    logs = [v.root_of_unity_log() for v in t]
    assert all(logs), "a twist is not a root of unity"
    level = lcm(*(n for n, _ in logs))
    return level, tuple(j * (level // n) for n, j in logs)


def product_twists(datum, a):
    """(t, level, exponents) of the lift with x = zeta_12^a, t by products."""
    m, e = derived_scalars(datum).anomaly.root_of_unity_log()
    mu = zeta(12, a) * zeta(6 * m, e).inverse()
    t = tuple(mu * th for th in datum.thetas)
    return (t, *twist_exponents(t))


def dual_from_s(datum):
    """Charge conjugation from S_{i j*} = conj(S_ij): column matching."""
    cols = [tuple(datum.S[i][j] for i in range(datum.rank)) for j in range(datum.rank)]
    index = {}
    for j, col in enumerate(cols):
        index.setdefault(col, []).append(j)
    dual = []
    for j, col in enumerate(cols):
        matches = index.get(tuple(v.conjugate() for v in col), [])
        if len(matches) != 1:
            return None
        dual.append(matches[0])
    perm = tuple(dual)
    if perm[0] != 0 or any(perm[perm[j]] != j for j in range(datum.rank)):
        return None
    return perm


def mpmath_complex_eval(x: Cyclotomic) -> complex:
    """x at the principal embedding by mpmath at 30 decimal places."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for e, c in x.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                mpmath.mpf(2 * e) / x.order
            )
        return complex(float(total.real), float(total.imag))


def spectra_connectivity(rep):
    """Verdict of the t-spectrum graph's connectivity, by DFS from label 0."""
    exps = rep.t_exponents
    index = {}
    for e in exps:
        index.setdefault(e, len(index))
    n = len(index)
    adj = [set() for _ in range(n)]
    for i in range(rep.rank):
        for j in range(rep.rank):
            if rep.s[i][j]:
                a, b = index[exps[i]], index[exps[j]]
                adj[a].add(b)
                adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) == n:
        return Verdict(True)
    return Verdict(False, tuple(sorted(seen)), "t-spectrum graph is disconnected")


def signed_perm_match(rep1, rep2):
    """SignedPermutation carrying rep1 to rep2, or None; nondegenerate t."""
    r = rep1.rank
    if r != rep2.rank:
        return None
    for rep in (rep1, rep2):
        if len(set(rep.t_exponents)) != r:
            raise ValueError("signed_perm_match needs nondegenerate t")
    where2 = {e: i for i, e in enumerate(rep2.t_exponents)}
    if rep1.level != rep2.level or set(rep1.t_exponents) != set(where2):
        return None
    perm = tuple(where2[e] for e in rep1.t_exponents)
    s1, s2 = rep1.s, rep2.s
    eps = [None] * r
    for comp_root in range(r):
        if eps[comp_root] is not None:
            continue
        eps[comp_root] = 1
        stack = [comp_root]
        while stack:
            i = stack.pop()
            for j in range(r):
                if not s1[i][j]:
                    continue
                image = s2[perm[i]][perm[j]]
                if image == s1[i][j]:
                    sign = 1
                elif image == -s1[i][j]:
                    sign = -1
                else:
                    return None
                expect = eps[i] * sign
                if eps[j] is None:
                    eps[j] = expect
                    stack.append(j)
                elif eps[j] != expect:
                    return None
    signs = tuple(e if e is not None else 1 for e in eps)
    for i in range(r):
        for j in range(r):
            if s2[perm[i]][perm[j]] != signs[i] * signs[j] * s1[i][j]:
                return None
    return SignedPermutation(perm, signs)


def orbits_from_perms(rank, perms):
    """Orbits of the group the permutations generate, by union-find."""
    parent = list(range(rank))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i, j in enumerate(perm):
            parent[find(i)] = find(j)
    groups = {}
    for i in range(rank):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def generate(rank, gens):
    """The permutation group the generators generate, by BFS."""
    identity = tuple(range(rank))
    group = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return frozenset(group)


def smooth_residues(primes, m):
    """Residues mod m of the products of the primes, by BFS."""
    closure = {1 % m}
    frontier = [1 % m]
    while frontier:
        cur = frontier.pop()
        for p in primes:
            nxt = cur * p % m
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return frozenset(closure)


def embedding_descend(n, p, nums):
    """Numerators of an order-n element on the power basis of Q_(n/p), as
    (sub, k) with x = sub / k, or None: the trace projection checked by
    embedding it back."""
    m = n // p
    if m % p == 0:
        if any(e % p for e in nums):
            return None
        return {e // p: c for e, c in nums.items()}, 1
    s, t = pow(p, -1, m), pow(m, -1, p)
    raw = {}
    for e, c in nums.items():
        a, v = e * s % m, (c * (p - 1) if e * t % p == 0 else -c)
        raw[a] = raw[a] + v if a in raw else v
    sub = _reduce_exponents(m, raw)
    back = _reduce_exponents(n, {j * p: c for j, c in sub.items()})
    if back != {e: c * (p - 1) for e, c in nums.items()}:
        return None
    return sub, p - 1


def embedding_canonical(n, nums, den):
    """(conductor, numerators, denominator) of sum(nums[e] zeta_n^e) / den,
    descending with embedding_descend."""
    nums = _reduce_exponents(n, nums)
    if not set(nums) - {0}:
        n = 1
    changed = True
    while changed and n > 1:
        changed = False
        for p in factorize(n):
            step = embedding_descend(n, p, nums)
            if step is not None:
                (nums, k), n, changed = step, n // p, True
                den *= k
                break
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {e: c // g for e, c in nums.items()}
    return n, nums, den


def matmul_projectively_unitary(datum: ModularDatum, d2: Cyclotomic) -> bool:
    """S conj(S)^t == D^2 Id from the full product."""
    conj = entrywise(datum.S, lambda v: v.conjugate())
    return identity_multiple(mat.matmul(datum.S, conj)) == d2


def separate_check_balancing(datum: ModularDatum, fusion: FusionRules) -> Verdict:
    """theta_i theta_j S_ij == sum_k N_{i* j}^k d_k theta_k, each side
    canonicalised on its own."""
    thetas, dims, dual = datum.thetas, datum.dims, fusion.dual
    terms = [dims[k] * thetas[k] for k in range(datum.rank)]
    for i in range(datum.rank):
        for j in range(datum.rank):
            lhs = thetas[i] * thetas[j] * datum.S[i][j]
            rhs = dot(
                (fusion.n(dual[i], j, k), terms[k])
                for k in range(datum.rank)
                if fusion.n(dual[i], j, k)
            )
            if lhs != rhs:
                return Verdict(False, (i, j), "balancing equation fails")
    return Verdict(True)


def matmul_st_residual(s, t, c):
    """R = T(ST)^2 - cS from matmul(ST, ST)."""
    st, minus_c = scale_cols(s, t), -c
    return tuple(
        tuple(dot(((tj, x), (minus_c, v))) for x, v in zip(row, srow))
        for tj, row, srow in zip(t, mat.matmul(st, st), s)
    )


_ROOT_PAIR_CLASSES: dict[int, dict[tuple[int, int], tuple]] = {}


def lift(columns):
    """The columns as integer columns on one power basis: their numerators
    at the lcm order, over a common denominator (a uniform scaling, so the
    kernel is unchanged)."""
    order = lcm(*(col.order for col in columns))
    den = lcm(*(col._den for col in columns))
    return [
        {e: q * (den // col._den) for e, q in _numerators_at(col, order)[0].items()}
        for col in columns
    ]


def kernel_all_nonzero_solution_exists(columns):
    """A relation among the integer columns with every coefficient nonzero,
    read off the kernel basis alone."""
    basis = _integer_kernel(columns)
    return bool(basis) and all(any(vec[c] for vec in basis) for c in range(len(columns)))


def root_pair_class(m, ea, n, eb):
    """(L, least exponent pair at L) over the class of (zeta_m^ea, zeta_n^eb):
    every unit k mod L = lcm(4, m, n), both signs of each root and both
    orders of the pair.  A sign moves the order of a root only between an
    odd m and 2m, so L is the same for every pair of the class."""
    order = lcm(4, m, n)
    x, y = ea * order // m, eb * order // n
    table = _ROOT_PAIR_CLASSES.setdefault(order, {})
    if (x, y) not in table:
        half = order // 2
        members = set()
        for k in units_mod(order):
            for u in (k * x % order, (k * x + half) % order):
                for v in (k * y % order, (k * y + half) % order):
                    members.update(((u, v), (v, u)))
        table.update(dict.fromkeys(members, (order, min(members))))
    return table[x, y]


def dot_projectively_unitary(datum: ModularDatum, d2: Cyclotomic) -> bool:
    """S conj(S)^t == D^2 Id, one dot of the difference per entry (i, j), i <= j."""
    conj_rows = [[v.conjugate() for v in row] for row in datum.S]
    for i, row in enumerate(datum.S):
        for j in range(i, datum.rank):
            pairs = zip(row, conj_rows[j])
            if dot(((-d2, ONE), *pairs) if i == j else pairs):
                return False
    return True


def dot_check_balancing(datum: ModularDatum, fusion: FusionRules) -> Verdict:
    """theta_i theta_j S_ij == sum_k N_{i* j}^k d_k theta_k, one dot per (i, j)."""
    r, N, exps = datum.rank, datum.torder, datum.t_exponents
    terms = [-(d * th) for d, th in zip(datum.dims, datum.thetas)]
    for i in range(r):
        plane = fusion.tensor[fusion.dual[i]]
        for j in range(r):
            pairs = [(zeta(N, exps[i] + exps[j]), datum.S[i][j])]
            for k, m in enumerate(plane[j]):
                pairs.extend([(terms[k], ONE)] * m)
            if dot(pairs):
                return Verdict(False, (i, j), "balancing equation fails")
    return Verdict(True)


def dot_check_twist_equation(datum: ModularDatum) -> Verdict:
    """The first nonzero (j, k), j <= k, of the exact residual of (ST)^3 = p+ S^2."""
    res = matmul_st_residual(datum.S, datum.thetas, derived_scalars(datum).gauss_plus)
    for j, row in enumerate(res):
        for k in range(j, datum.rank):
            if row[k]:
                return Verdict(False, (j, k), "twist equation fails")
    return Verdict(True)


def dot_st_cubed_is(s, t, c) -> bool:
    """(ST)^3 == cS^2: the exact residual R is 0, or else SR is."""
    res = matmul_st_residual(s, t, c)
    return not any(map(any, res)) or not any(map(any, mat.matmul(s, res)))


def matmul_square_is_identity(a) -> bool:
    return identity_multiple(mat.matmul(a, a)) == ONE


def matmul_power_permutation(a, k, c):
    """p with a^k = cP, P_ij = [j = p(i)], read off mat_pow(a, k); None when
    there is none or c = 0."""
    if not c:
        return None
    perm = []
    for row in mat.mat_pow(a, k):
        hits = [j for j, v in enumerate(row) if v]
        if len(hits) != 1 or row[hits[0]] != c:
            return None
        perm += hits
    return tuple(perm) if sorted(perm) == list(range(len(a))) else None


def dot_verlinde_fusion(datum: ModularDatum) -> FusionRules:
    """verlinde_fusion with the tensor from one exact dot per N_ij^k."""
    r = datum.rank
    ds = derived_scalars(datum)
    if any(not d for d in ds.dims):
        raise DegenerateSError("vanishing entry in the first row of S")
    if not dot_projectively_unitary(datum, ds.global_dim_sq):
        raise DegenerateSError("S * conj(S)^t != D^2 * Id")
    tensor = _exact_tensor(datum.S, ds.global_dim_sq)
    dual = []
    for i in range(r):
        hits = [k for k in range(r) if tensor[i][k][0] == 1]
        if len(hits) != 1 or any(tensor[i][k][0] not in (0, 1) for k in range(r)):
            raise NotFusionIntegral(i, 0, 0, ZERO)
        dual.append(hits[0])
    dual = tuple(dual)
    if dual[0] != 0 or any(dual[dual[i]] != i for i in range(r)):
        raise NotFusionIntegral(0, 0, 0, ZERO)
    return FusionRules(r, tuple(tuple(map(tuple, plane)) for plane in tensor), dual)


def oracle_profile(datum: ModularDatum):
    """(units, perms, orbits) of h_sigma over every unit mod the conductor of
    S, each matched on canonical character values; raises NotGaloisStable
    as compute_profile does."""
    cols = _characters(datum.S)
    units = tuple(units_mod(datum.s_field_conductor))
    perms = {k: _match_permutation(cols, k) for k in units}
    return units, perms, orbits_from_perms(datum.rank, perms.values())
