"""SL(2,Z) liftings of modular data: normalized pairs, levels, parity,
t-spectrum obstructions, and the static spectra database."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Optional

from . import _matrix as mat
from .cyclotomic import Cyclotomic, ONE, _cap_caches, is_prime, real_sign, sqrt_int, sum_cyclotomics, zeta
from .galois import _components
from .modular_data import ModularDatum, Record, Verdict, _s_facts, _SFacts, derived_scalars


class NotModularRepresentation(ValueError):
    """The scaled pair violates s^4 = 1 or (st)^3 = s^2."""


class NotTabulatedError(LookupError):
    """Spectra query outside the degree <= 4 prime-power table."""


class ModularRep(Record):
    """A normalized pair (s, t): a genuine SL(2,Z) representation.

    s = lam S.  A lift stores its datum's S, which all 12 lifts share, and
    its scalar lam; ``s`` is formed only when read, with one product per
    distinct entry of S.  A rep built from a matrix s alone (lam = 1) is put
    in the form lam = s_00, S = s / s_00 when s_00 != 0, the form of every
    lift (S_00 = 1), so (S, lam) is a function of s and == and hash mean
    "same s, t, level, parity".
    t = diag(zeta_level^e) for e in ``t_exponents`` (each reduced mod
    ``level``), as ModularDatum stores T; ``level`` must be the order of t,
    the lcm of the exponents' orders, or NotModularRepresentation is raised.
    h_sigma on the columns s_ia / s_0a = S_ia / S_0a is _SFacts.h_sigma of S.
    """

    rank: int
    S: mat.Matrix
    level: int
    t_exponents: tuple[int, ...]
    parity: str  # even | odd | neither
    lam: Cyclotomic = ONE

    def __post_init__(self):
        n = self.level
        if n < 1 or n != lcm(*(n // gcd(e, n) for e in self.t_exponents)):
            raise NotModularRepresentation(f"level {n} is not the order of t")
        object.__setattr__(self, "t_exponents", tuple(e % n for e in self.t_exponents))
        s00 = self.S[0][0]
        if s00 and s00 != ONE:
            inv = s00.inverse()
            object.__setattr__(self, "S", tuple(tuple(v * inv for v in row) for row in self.S))
            object.__setattr__(self, "lam", self.lam * s00)

    @cached_property
    def s(self) -> mat.Matrix:
        lam = self.lam
        products = {v: v * lam for v in {v for row in self.S for v in row}}
        return tuple(tuple(map(products.__getitem__, row)) for row in self.S)

    @property
    def t(self) -> tuple[Cyclotomic, ...]:
        return tuple(zeta(self.level, e) for e in self.t_exponents)


def verify_relations(s: mat.Matrix, t: tuple[Cyclotomic, ...]) -> Verdict:
    """Exact check of s^4 = Id and (st)^3 = s^2."""
    facts = _SFacts(s)
    if facts.square_and_fourth[1] != ONE:
        return Verdict(False, "s^4 != Id")
    if not mat._st_cubed_is(facts, t, ONE):
        return Verdict(False, "(st)^3 != s^2")
    return Verdict(True)


def _parity(c2: Optional[Cyclotomic]) -> str:
    """Parity from s^2 = c2 Id: even if c2 = 1, odd if c2 = -1."""
    return "even" if c2 == ONE else "odd" if c2 == -ONE else "neither"


def _lifts(
    datum: ModularDatum, root: tuple[int, int], x_exps: Iterable[int]
) -> tuple[ModularRep, ...]:
    """The lifts s = lam S, t = mu T for x = zeta_12^a, a in x_exps, where
    lam = zeta^3 / (x^3 p+), mu = x / zeta and zeta = zeta_m^e for root = (m, e).

    The work that depends only on the datum is done once, and what depends
    on S alone once per S (_s_facts).  lam mu^3 = 1/p+, so (st)^3 = s^2 iff
    (ST)^3 = p+ S^2.  At a = 0, lam = zeta^3 / p+, and no norm inverse is
    taken when derived_scalars found p+ p- = D^2 != 0: then p+ (p- D^-2) =
    D^2 D^-2 = 1, so 1/p+ = p- D^-2 and lam = zeta^3 p- D^-2, with the D^-2
    that _SFacts forms once per S.  Otherwise lam = zeta^3 p+^-1.  x^3 =
    i^a, so lam_a = lam i^-a depends on a mod 4 alone: lam for a = 0, -lam
    for a = 2, and one product each for a = 1 and a = 3.  With S^4 = c4 Id,
    s^4 = Id iff lam^4 c4 = 1, and lam_a^2 = (-1)^a lam^2 gives two
    parities.  c2, c4 and the (ST)^3 verdict of condition (ii) are read
    from S's residue tables, with no matrix product.  Each lift stores S and
    its lam, and forms no matrix (ModularRep.s).  t is exponent arithmetic
    at L = lcm(12, m, N), cut down to its level.  Every lift's S is datum.S,
    so all read one _SFacts.h_sigma.
    """
    S, (m, e), N = datum.S, root, datum.torder
    facts, ds = _s_facts(S), derived_scalars(datum)
    c2, c4 = facts.square_and_fourth
    if ds.gauss_product_is_d2 and ds.global_dim_sq:
        lam = zeta(m, 3 * e) * ds.gauss_minus * facts.global_dim_sq_inv
    else:
        lam = zeta(m, 3 * e) * ds.gauss_plus.inverse()
    lam2 = lam * lam
    if c4 is None or lam2 * lam2 * c4 != ONE:
        raise NotModularRepresentation("s^4 != Id")
    if not ds.st_cubed:
        raise NotModularRepresentation("(st)^3 != s^2")
    lam2_c2 = None if c2 is None else lam2 * c2
    parities = (_parity(lam2_c2), _parity(None if lam2_c2 is None else -lam2_c2))
    L = lcm(12, m, N)
    theta_exps = [j * (L // N) - e * (L // m) for j in datum.t_exponents]
    lams = {0: lam, 2: -lam}
    reps = []
    for a in x_exps:
        if a % 4 not in lams:
            lams[a % 4] = lam * zeta(4, -a)
        exps = [(a * (L // 12) + th) % L for th in theta_exps]
        level = lcm(*(L // gcd(v, L) for v in exps))
        exps = tuple(v // (L // level) for v in exps)
        reps.append(ModularRep(datum.rank, S, level, exps, parities[a % 2], lams[a % 4]))
    return tuple(reps)


def _anomaly_sixth_root(datum: ModularDatum) -> tuple[int, int]:
    """A sixth root zeta_(6m)^e of the anomaly zeta_m^e, as (6m, e)."""
    ds = derived_scalars(datum)
    if ds.anomaly is None:
        raise NotModularRepresentation("p- = 0: anomaly undefined")
    log = ds.anomaly.root_of_unity_log()
    if log is None:
        raise NotModularRepresentation("anomaly is not a root of unity")
    m, e = log
    return 6 * m, e


@lru_cache(maxsize=None)
def normalize(datum: ModularDatum) -> ModularRep:
    """The canonical lift s = S/D, t = (x/zeta) T.

    zeta is a 6th root of the anomaly and x = +-1 is the 6th root of unity
    with zeta^3/(x^3 p+) = 1/D: D = +-p+/zeta^3, with the sign fixed by the
    principal embedding.  The sign is read from 2 Re(+-D), which is real
    even for a datum whose D is not.
    """
    root = m, e = _anomaly_sixth_root(datum)
    d_root = derived_scalars(datum).gauss_plus * zeta(m, -3 * e)  # +-D
    x_exp = 0 if real_sign(d_root + d_root.conjugate()) > 0 else 6
    return _lifts(datum, root, (x_exp,))[0]


def all_lifts(datum: ModularDatum) -> list[ModularRep]:
    """The 12 modular representations rho_x, x running over 12th roots."""
    return list(_lifts(datum, _anomaly_sixth_root(datum), range(12)))


_cap_caches.append(normalize.cache_clear)


# ---------------------------------------------------------------------------
# spectra predicates


def spectra_connectivity(rep: ModularRep) -> Verdict:
    """Graph on distinct t-eigenvalues, edges where s_ij != 0: connected?

    A disconnected graph exhibits a direct-sum split with disjoint t-spectra.
    s_ij != 0 iff S_ij != 0, since lam != 0, so s is not formed.
    """
    exps, r = rep.t_exponents, rep.rank
    index: dict[int, int] = {}
    for e in exps:
        index.setdefault(e, len(index))
    labels = [index[e] for e in exps]
    edges = ((labels[i], labels[j]) for i in range(r) for j in range(r) if rep.S[i][j])
    component = _components(len(index), edges)[0]
    if len(component) == len(index):
        return Verdict(True)
    return Verdict(False, component, "t-spectrum graph is disconnected")


class ObstructionScan(Record):
    """Which (r-2)-sub-multisets of the t-spectrum could carry a
    subrepresentation: any without a 120th root of unity is obstructed."""

    subdegree: int
    eigenvalue_orders: tuple[int, ...]
    subsets: tuple[tuple[tuple[Cyclotomic, ...], bool], ...]

    @property
    def all_obstructed(self) -> bool:
        return all(not ok for _, ok in self.subsets)

    @property
    def split_allowed(self) -> bool:
        return any(ok for _, ok in self.subsets)


def obstruction_120(rep: ModularRep) -> ObstructionScan:
    """Scan candidate degree-(r-2) sub-spectra for a 120th root of unity."""
    if rep.rank < 3:
        raise ValueError("obstruction scan needs rank >= 3")
    subdegree = rep.rank - 2
    n, exps, t = rep.level, rep.t_exponents, rep.t
    orders = tuple(n // gcd(e, n) for e in exps)
    seen = set()
    subsets = []
    for idxs in combinations(range(rep.rank), subdegree):
        key = tuple(sorted(exps[i] for i in idxs))
        if key in seen:
            continue
        seen.add(key)
        values = tuple(t[i] for i in idxs)
        has_120 = any(120 % orders[i] == 0 for i in idxs)
        subsets.append((values, has_120))
    return ObstructionScan(subdegree, orders, tuple(subsets))


# ---------------------------------------------------------------------------
# signed permutation matching (equivalence of nondegenerate reps)


class SignedPermutation(Record):
    perm: tuple[int, ...]  # t2[perm[i]] == t1[i]
    signs: tuple[int, ...]


def signed_perm_match(rep1: ModularRep, rep2: ModularRep) -> Optional[SignedPermutation]:
    """U with U^-1 s1 U = s2 matching the t-spectra, or None.

    Both representations must be nondegenerate (distinct t-eigenvalues).
    """
    r = rep1.rank
    if r != rep2.rank:
        return None
    for rep in (rep1, rep2):
        if len(set(rep.t_exponents)) != r:
            raise ValueError("signed_perm_match needs nondegenerate t")
    # the level is the order of t, so different levels mean different spectra
    where2 = {e: i for i, e in enumerate(rep2.t_exponents)}
    if rep1.level != rep2.level or set(rep1.t_exponents) != set(where2):
        return None
    perm = tuple(where2[e] for e in rep1.t_exponents)
    s1, s2 = rep1.s, rep2.s
    # eps with s2[perm(i)][perm(j)] = eps_i eps_j s1[i][j], read off a spanning
    # forest of the graph s1[i][j] != 0: a tree fixes eps on its component up
    # to a global sign, which eps_i eps_j does not see, and the check below
    # rejects any image other than +-s1[i][j] and any inconsistent other edge
    eps = [0] * r
    for root in range(r):
        if eps[root]:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(r):
                if s1[i][j] and not eps[j]:
                    eps[j] = eps[i] if s2[perm[i]][perm[j]] == s1[i][j] else -eps[i]
                    stack.append(j)
    for i in range(r):
        for j in range(r):
            if s2[perm[i]][perm[j]] != eps[i] * eps[j] * s1[i][j]:
                return None
    return SignedPermutation(perm, tuple(eps))


# ---------------------------------------------------------------------------
# the degree <= 4 prime-power spectra table


class SpectrumRecord(Record):
    degree: int
    parity: str
    level: int
    spectra: tuple[frozenset[Cyclotomic], ...]


def _spec(*pairs: tuple[int, int]) -> frozenset[Cyclotomic]:
    return frozenset(zeta(n, e) for n, e in pairs)


_TABLE_ROWS: tuple[SpectrumRecord, ...] = (
    SpectrumRecord(2, "even", 2, (_spec((1, 0), (2, 1)),)),
    SpectrumRecord(
        2, "odd", 3,
        (_spec((3, 0), (3, 1)), _spec((3, 1), (3, 2)), _spec((3, 2), (3, 0))),
    ),
    SpectrumRecord(2, "odd", 4, (_spec((4, 1), (4, 3)),)),
    SpectrumRecord(2, "odd", 5, (_spec((5, 1), (5, 4)), _spec((5, 2), (5, 3)))),
    SpectrumRecord(2, "even", 8, (_spec((8, 5), (8, 7)), _spec((8, 1), (8, 3)))),
    SpectrumRecord(2, "odd", 8, (_spec((8, 3), (8, 5)), _spec((8, 7), (8, 1)))),
    SpectrumRecord(3, "even", 3, (_spec((3, 1), (3, 2), (1, 0)),)),
    SpectrumRecord(
        3, "odd", 4,
        (_spec((4, 1), (2, 1), (1, 0)), _spec((4, 3), (1, 0), (2, 1))),
    ),
    SpectrumRecord(
        3, "even", 4,
        (_spec((2, 1), (4, 3), (4, 1)), _spec((1, 0), (4, 1), (4, 3))),
    ),
    SpectrumRecord(
        3, "even", 5,
        (_spec((1, 0), (5, 1), (5, 4)), _spec((1, 0), (5, 2), (5, 3))),
    ),
    SpectrumRecord(
        3, "even", 7,
        (_spec((7, 2), (7, 1), (7, 4)), _spec((7, 5), (7, 6), (7, 3))),
    ),
    SpectrumRecord(
        3, "odd", 8,
        (
            _spec((2, 1), (8, 5), (8, 1)),
            _spec((1, 0), (8, 1), (8, 5)),
            _spec((2, 1), (8, 7), (8, 3)),
            _spec((1, 0), (8, 3), (8, 7)),
        ),
    ),
    SpectrumRecord(
        3, "even", 8,
        (
            _spec((4, 3), (8, 7), (8, 3)),
            _spec((4, 1), (8, 3), (8, 7)),
            _spec((4, 1), (8, 5), (8, 1)),
            _spec((4, 3), (8, 1), (8, 5)),
        ),
    ),
    SpectrumRecord(
        3, "odd", 16,
        (
            _spec((8, 5), (16, 1), (16, 9)),
            _spec((8, 1), (16, 9), (16, 1)),
            _spec((8, 1), (16, 5), (16, 13)),
            _spec((8, 5), (16, 13), (16, 5)),
            _spec((8, 7), (16, 3), (16, 11)),
            _spec((8, 3), (16, 11), (16, 3)),
            _spec((8, 3), (16, 15), (16, 7)),
            _spec((8, 7), (16, 15), (16, 7)),
        ),
    ),
    SpectrumRecord(
        3, "even", 16,
        (
            _spec((8, 7), (16, 5), (16, 13)),
            _spec((8, 3), (16, 13), (16, 5)),
            _spec((8, 3), (16, 9), (16, 1)),
            _spec((8, 7), (16, 1), (16, 9)),
            _spec((8, 5), (16, 15), (16, 7)),
            _spec((8, 1), (16, 7), (16, 15)),
            _spec((8, 5), (16, 3), (16, 11)),
            _spec((8, 1), (16, 11), (16, 3)),
        ),
    ),
    SpectrumRecord(4, "odd", 5, (_spec((5, 1), (5, 2), (5, 3), (5, 4)),)),
    SpectrumRecord(4, "even", 5, (_spec((5, 1), (5, 2), (5, 3), (5, 4)),)),
    SpectrumRecord(
        4, "odd", 7,
        (
            _spec((1, 0), (7, 1), (7, 4), (7, 2)),
            _spec((1, 0), (7, 6), (7, 3), (7, 5)),
        ),
    ),
    SpectrumRecord(4, "odd", 8, (_spec((8, 1), (8, 3), (8, 5), (8, 7)),)),
    SpectrumRecord(4, "even", 8, (_spec((8, 1), (8, 3), (8, 5), (8, 7)),)),
    SpectrumRecord(
        4, "odd", 9,
        (
            _spec((9, 1), (9, 4), (9, 7), (3, 1)),
            _spec((9, 1), (9, 4), (9, 7), (3, 2)),
            _spec((9, 1), (9, 4), (9, 7), (1, 0)),
            _spec((9, 2), (9, 5), (9, 8), (3, 2)),
            _spec((9, 2), (9, 5), (9, 8), (1, 0)),
            _spec((9, 2), (9, 5), (9, 8), (3, 1)),
        ),
    ),
    SpectrumRecord(
        4, "even", 9,
        (
            _spec((9, 1), (9, 4), (9, 7), (3, 1)),
            _spec((9, 1), (9, 4), (9, 7), (3, 2)),
            _spec((9, 1), (9, 4), (9, 7), (1, 0)),
            _spec((9, 2), (9, 5), (9, 8), (3, 2)),
            _spec((9, 2), (9, 5), (9, 8), (1, 0)),
            _spec((9, 2), (9, 5), (9, 8), (3, 1)),
        ),
    ),
)

_TABLE_LEVELS = frozenset(row.level for row in _TABLE_ROWS)


def spectra_lookup(degree: int, level: int, parity: str) -> list[SpectrumRecord]:
    """Table rows for (degree, level, parity); empty list means no such
    irreducible exists at a tabulated level."""
    if degree not in (2, 3, 4) or parity not in ("even", "odd"):
        raise NotTabulatedError(f"no table entry class ({degree}, {level}, {parity})")
    if level not in _TABLE_LEVELS:
        raise NotTabulatedError(f"level {level} is not tabulated")
    return [
        row
        for row in _TABLE_ROWS
        if row.degree == degree and row.level == level and row.parity == parity
    ]


# ---------------------------------------------------------------------------
# the inadmissible degree-p level-p representation


_PSI_MAX_PRIME = 50


class PsiCertificate(Record):
    rep: ModularRep
    sqrt_conductor: int
    inadmissible: bool


def inadmissible_psi(p: int) -> PsiCertificate:
    """The unique degree-p irreducible of SL(2, Z/p), plus the certificate
    that it is not realizable: conductor(sqrt(p+1)) does not divide p."""
    if p <= 3 or p > _PSI_MAX_PRIME or not is_prime(p):
        raise ValueError(f"p must be a prime with 3 < p <= {_PSI_MAX_PRIME}")
    # The relations are checked on s' = D^-1 s D, D = diag(1/sqrt(p+1), 1, ..., 1),
    # which lies in Q(zeta_p): D commutes with t, so s' satisfies s^4 = 1 and
    # (st)^3 = s^2 exactly when s does, and s'^2 = D^-1 s^2 D gives s the parity.
    p_inv = Cyclotomic.from_rational(1) / p
    rows = [(-p_inv,) + (p_inv * (p + 1),) * (p - 1)]
    for j in range(1, p):
        kloosterman = (
            sum_cyclotomics(zeta(p, a * j + pow(a, -1, p) * k) for a in range(1, p))
            for k in range(1, p)
        )
        rows.append((p_inv,) + tuple(acc * p_inv for acc in kloosterman))
    s_prime = tuple(rows)
    facts = _SFacts(s_prime)
    c2, c4 = facts.square_and_fourth
    if c4 != ONE:
        raise NotModularRepresentation("s^4 != Id")
    if not mat._st_cubed_is(facts, tuple(zeta(p, e) for e in range(p)), ONE):
        raise NotModularRepresentation("(st)^3 != s^2")
    # s = D s' D^-1: row 0 scaled by 1/sqrt(p+1), column 0 by sqrt(p+1), both root/p
    root = sqrt_int(p + 1)
    edge = root * p_inv
    s = ((-p_inv,) + (edge,) * (p - 1),) + tuple((edge,) + row[1:] for row in s_prime[1:])
    rep = ModularRep(p, s, p, tuple(range(p)), _parity(c2))
    cond = root.conductor
    return PsiCertificate(rep, cond, p % cond != 0)
