"""Modular data (S, T), Verlinde fusion and the seven-condition
admissibility checker."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from . import _matrix as mat
from .cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    _norm_cofactor,
    _twisted_sum,
    dot,
    factorize,
    sum_cyclotomics,
    units_mod,
    zeta,
)

if TYPE_CHECKING:  # pragma: no cover
    from .galois import GaloisProfile

PathLike = Union[str, Path]
Tensor = tuple[tuple[tuple[int, ...], ...], ...]  # tensor[i][j][k] = N_{ij}^k


class SchemaViolation(ValueError):
    """Malformed datum file or structurally invalid (S, T) pair."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class FusionComputationError(ValueError):
    pass


class DegenerateSError(FusionComputationError):
    """S fails projective unitarity (or has a vanishing first row)."""


class NotFusionIntegral(FusionComputationError):
    """A Verlinde coefficient is not a nonnegative rational integer."""

    def __init__(self, i: int, j: int, k: int, value: Cyclotomic):
        super().__init__(f"N[{i},{j}]^{k} = {value} is not a nonnegative integer")
        self.witness = (i, j, k, value)


class FSExponentNotFound(ValueError):
    """No n with nu_n(k) = d_k for all k; the data is not admissible."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact check, with the first witness on failure."""

    ok: bool
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# the central object


@dataclass(frozen=True)
class ModularDatum:
    """Rank-r S matrix over a cyclotomic field plus twists theta_j = zeta_N^a_j."""

    rank: int
    torder: int
    t_exponents: tuple[int, ...]
    S: mat.Matrix

    def __post_init__(self):
        r, N = self.rank, self.torder
        if r < 1:
            raise SchemaViolation(f"rank must be >= 1, got {r}", "rank")
        if N < 1:
            raise SchemaViolation(f"torder must be >= 1, got {N}", "torder")
        if len(self.t_exponents) != r:
            raise SchemaViolation(
                f"expected {r} exponents, got {len(self.t_exponents)}", "t_exponents"
            )
        object.__setattr__(
            self, "t_exponents", tuple(a % N for a in self.t_exponents)
        )
        if self.t_exponents[0] != 0:
            raise SchemaViolation("theta_0 must be 1", "t_exponents[0]")
        if len(self.S) != r or any(len(row) != r for row in self.S):
            raise SchemaViolation(f"S must be {r}x{r}", "S")
        for i in range(r):
            for j in range(i + 1, r):
                if self.S[i][j] != self.S[j][i]:
                    raise SchemaViolation("S is not symmetric", f"S[{i}][{j}]")
        if self.S[0][0] != ONE:
            raise SchemaViolation("S[0][0] must be 1", "S[0][0]")

    # -- scalars -------------------------------------------------------------

    def theta(self, j: int) -> Cyclotomic:
        return zeta(self.torder, self.t_exponents[j])

    @property
    def thetas(self) -> tuple[Cyclotomic, ...]:
        return tuple(self.theta(j) for j in range(self.rank))

    @property
    def dims(self) -> tuple[Cyclotomic, ...]:
        return tuple(self.S[0])

    @property
    def ord_t(self) -> int:
        """Actual order of T (lcm of the twist orders)."""
        return lcm(*(self.torder // gcd(self.torder, a) for a in self.t_exponents))

    @property
    def s_field_conductor(self) -> int:
        """Conductor of F_S, the field generated by all S entries."""
        return lcm(*(v.order for row in self.S for v in row))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "torder": self.torder,
            "t_exponents": list(self.t_exponents),
            "S": [[v.to_json() for v in row] for row in self.S],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModularDatum":
        try:
            rank = int(data["rank"])
            torder = int(data["torder"])
            exps = tuple(int(a) for a in data["t_exponents"])
            S = tuple(
                tuple(Cyclotomic.from_json(v) for v in row) for row in data["S"]
            )
        except SchemaViolation:
            raise
        except Exception as exc:
            raise SchemaViolation(str(exc), "datum") from exc
        return cls(rank, torder, exps, S)


def save(datum: ModularDatum, path: PathLike) -> None:
    Path(path).write_text(json.dumps(datum.to_json(), indent=1) + "\n", "utf-8")


def load(path: PathLike) -> ModularDatum:
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"malformed JSON: {exc}", str(path)) from exc
    return ModularDatum.from_json(data)


# ---------------------------------------------------------------------------
# derived scalars


@dataclass(frozen=True)
class DerivedScalars:
    dims: tuple[Cyclotomic, ...]
    global_dim_sq: Cyclotomic
    gauss_plus: Cyclotomic
    gauss_minus: Cyclotomic
    anomaly: Optional[Cyclotomic]
    dual: Optional[tuple[int, ...]]


@lru_cache(maxsize=None)
def derived_scalars(datum: ModularDatum) -> DerivedScalars:
    """Dimensions, D^2, Gauss sums, anomaly and the charge conjugation."""
    dims = datum.dims
    thetas = datum.thetas
    d_sq = [d * d for d in dims]
    global_dim_sq = sum_cyclotomics(d_sq)
    p_plus = sum_cyclotomics(dq * th for dq, th in zip(d_sq, thetas))
    p_minus = sum_cyclotomics(
        dq * th.conjugate() for dq, th in zip(d_sq, thetas)
    )
    anomaly = p_plus * p_minus.inverse() if p_minus else None
    return DerivedScalars(
        dims, global_dim_sq, p_plus, p_minus, anomaly, dual_from_s(datum)
    )


def dual_from_s(datum: ModularDatum) -> Optional[tuple[int, ...]]:
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


# ---------------------------------------------------------------------------
# Verlinde fusion


@dataclass(frozen=True)
class FusionRules:
    """Nonnegative-integer fusion tensor N_{ij}^k with dual involution."""

    rank: int
    tensor: Tensor
    dual: tuple[int, ...] = field(compare=False)

    def n(self, i: int, j: int, k: int) -> int:
        return self.tensor[i][j][k]

    def matrix(self, i: int) -> list[list[int]]:
        """Fusion matrix N_i with (N_i)_{kj} = N_{ij}^k."""
        return [list(col) for col in zip(*self.tensor[i])]

    def verify_invariants(self) -> list[str]:
        """All violated fusion-ring identities (empty when consistent)."""
        r, N, dual = self.rank, self.tensor, self.dual
        bad = []
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if N[i][j][k] != N[j][i][k]:
                        bad.append(f"N[{i},{j}]^{k} != N[{j},{i}]^{k}")
                    if N[i][j][k] != N[i][dual[k]][dual[j]]:
                        bad.append(f"N[{i},{j}]^{k} != N[i,k*]^(j*)")
                    if N[i][j][k] != N[dual[i]][dual[j]][dual[k]]:
                        bad.append(f"N[{i},{j}]^{k} != N[i*,j*]^(k*)")
                if N[i][j][0] != (1 if dual[i] == j else 0):
                    bad.append(f"N[{i},{j}]^0 != delta(i, j*)")
                if N[0][i][j] != (1 if i == j else 0):
                    bad.append(f"N[0,{i}]^{j} != delta({i},{j})")
        # (a b) c = a (b c): sum_m N_ij^m N_mk^l = sum_m N_jk^m N_im^l
        for i, j, k, l in product(range(r), repeat=4):
            if sum(N[i][j][m] * N[m][k][l] - N[j][k][m] * N[i][m][l] for m in range(r)):
                bad.append(f"associativity fails at ({i},{j},{k},{l})")
                break
        for i in range(r):
            for j in range(i + 1, r):
                # (N_i N_j)_{kl} = sum_m N_{im}^k N_{jl}^m
                if any(
                    sum(N[i][m][k] * N[j][l][m] - N[j][m][k] * N[i][l][m] for m in range(r))
                    for k, l in product(range(r), repeat=2)
                ):
                    bad.append(f"N_{i} and N_{j} do not commute")
        return bad


@lru_cache(maxsize=None)
def verlinde_fusion(datum: ModularDatum) -> FusionRules:
    """Exact fusion rules N_{ij}^k = (1/D^2) sum_a S_ia S_ja conj(S_ka) / S_0a."""
    r = datum.rank
    ds = derived_scalars(datum)
    if any(not d for d in ds.dims):
        raise DegenerateSError("vanishing entry in the first row of S")
    if not _projectively_unitary(datum, ds.global_dim_sq):
        raise DegenerateSError("S * conj(S)^t != D^2 * Id")
    d2_inv = ds.global_dim_sq.inverse()
    # weighted[i][a] = S_ia / (S_0a D^2)
    weights = [d.inverse() * d2_inv for d in ds.dims]
    weighted = [[v * w for v, w in zip(row, weights)] for row in datum.S]
    conj_rows = [[v.conjugate() for v in row] for row in datum.S]
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            pair = [w * v for w, v in zip(weighted[i], datum.S[j])]
            for k in range(r):
                value = dot(zip(pair, conj_rows[k]))
                if not value.is_integer or value.as_integer() < 0:
                    raise NotFusionIntegral(i, j, k, value)
                tensor[i][j][k] = tensor[j][i][k] = value.as_integer()
    dual = []
    for i in range(r):
        hits = [k for k in range(r) if tensor[i][k][0] == 1]
        if len(hits) != 1 or any(
            tensor[i][k][0] not in (0, 1) for k in range(r)
        ):
            raise NotFusionIntegral(i, 0, 0, ZERO)
        dual.append(hits[0])
    dual = tuple(dual)
    if dual[0] != 0 or any(dual[dual[i]] != i for i in range(r)):
        raise NotFusionIntegral(0, 0, 0, ZERO)
    return FusionRules(r, tuple(tuple(map(tuple, plane)) for plane in tensor), dual)


def _projectively_unitary(datum: ModularDatum, d2: Cyclotomic) -> bool:
    prod = mat.matmul(datum.S, mat.conj(datum.S))  # conj(S)^t = conj(S), S symmetric
    target = mat.scale(mat.eye(datum.rank), d2)
    return mat.mat_eq(prod, target)


# ---------------------------------------------------------------------------
# exact identities


def check_balancing(datum: ModularDatum, fusion: FusionRules) -> Verdict:
    """theta_i theta_j S_ij = sum_k N_{i* j}^k d_k theta_k, exactly."""
    thetas = datum.thetas
    dims = datum.dims
    dual = fusion.dual
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


def check_twist_equation(datum: ModularDatum) -> Verdict:
    """p+ S_jk = theta_j theta_k sum_i theta_i S_ij S_ik, exactly."""
    ds = derived_scalars(datum)
    thetas = datum.thetas
    for j in range(datum.rank):
        for k in range(j, datum.rank):
            lhs = ds.gauss_plus * datum.S[j][k]
            rhs = sum_cyclotomics(
                thetas[i] * datum.S[i][j] * datum.S[i][k]
                for i in range(datum.rank)
            )
            if lhs != thetas[j] * thetas[k] * rhs:
                return Verdict(False, (j, k), "twist equation fails")
    return Verdict(True)


def _fs_table(datum: ModularDatum, fusion: FusionRules) -> list[dict[int, Cyclotomic]]:
    """Per k, the map delta -> D^-2 c_k[delta] with c_k[delta] the sum of
    N_ij^k d_i d_j over a_i - a_j = delta mod N (Ng-Schauenburg), so that
    nu_n(k) = sum_delta D^-2 c_k[delta] zeta_N^(n delta) for every n."""
    N, r = datum.torder, datum.rank
    exps = datum.t_exponents
    dims = datum.dims
    d2_inv = derived_scalars(datum).global_dim_sq.inverse()
    scaled = [d * d2_inv for d in dims]
    table = []
    for k in range(r):
        groups: dict[int, list] = {}
        for i in range(r):
            for j in range(r):
                m = fusion.n(i, j, k)
                if m:
                    # m copies of the product D^-2 d_i d_j
                    pairs = groups.setdefault((exps[i] - exps[j]) % N, [])
                    pairs.extend([(scaled[i], dims[j])] * m)
        table.append({delta: dot(pairs) for delta, pairs in groups.items()})
    return table


def fs_indicator(
    datum: ModularDatum, fusion: FusionRules, n: int, k: int
) -> Cyclotomic:
    """Frobenius-Schur indicator nu_n(k), exact."""
    return _twisted_sum(datum.torder, _fs_table(datum, fusion)[k].items(), n)


def fs_exponent(datum: ModularDatum, fusion: FusionRules) -> int:
    """Minimal n with nu_n(k) = d_k for all k.

    (theta_i / theta_j)^n is ord(T)-periodic in n, so scanning n = 1..ord(T)
    is exhaustive; the spec cap of 12 * ord(T) is therefore never reached.
    """
    dims = datum.dims
    table = _fs_table(datum, fusion)
    for n in range(1, datum.ord_t + 1):
        if all(
            _twisted_sum(datum.torder, row.items(), n) == d for row, d in zip(table, dims)
        ):
            return n
    raise FSExponentNotFound(
        f"no Frobenius-Schur exponent up to ord(T) = {datum.ord_t}"
    )


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class ConditionReport:
    index: int
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple[ConditionReport, ...]
    # the Galois profile condition (vi) computed, if it got that far
    profile: Optional[GaloisProfile] = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[ConditionReport]:
        return [c for c in self.conditions if not c.passed]

    def format_table(self) -> str:
        lines = []
        for c in self.conditions:
            tag = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.witness}]" if c.witness and not c.passed else ""
            lines.append(f"({c.index}) {c.name:<24} {tag}{extra}")
        verdict = "admissible" if self.passed else "NOT admissible"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "passed": self.passed,
            "conditions": [
                {
                    "index": c.index,
                    "name": c.name,
                    "passed": c.passed,
                    "witness": c.witness,
                }
                for c in self.conditions
            ],
        }


def rational_prime_support(q: Fraction) -> frozenset[int]:
    primes = set(factorize(abs(q.numerator)) if q.numerator else set())
    primes |= set(factorize(q.denominator))
    return frozenset(primes)


def norm_prime_support(x: Cyclotomic) -> frozenset[int]:
    """Primes dividing the rational field norm of x (over the conductor field)."""
    return rational_prime_support((x * _norm_cofactor(x)).as_rational())


def check_admissible(datum: ModularDatum) -> AdmissibilityReport:
    """Evaluate the seven admissibility conditions, all exactly."""
    reports: list[ConditionReport] = []
    ds = derived_scalars(datum)
    N = datum.ord_t
    r = datum.rank

    # verlinde_fusion tests projective unitarity whenever the first row of S
    # has no zero, and raises DegenerateSError then iff the test fails; its
    # outcome settles that clause of (i), so S * conj(S) is formed once
    fusion: Optional[FusionRules] = None
    fusion_error: Optional[FusionComputationError] = None
    try:
        fusion = verlinde_fusion(datum)
    except FusionComputationError as exc:
        fusion_error = exc

    # (i) reality, projective unitarity, finite twist order; S is symmetric
    # since ModularDatum rejects any other
    witness = ""
    ok = True
    for j, d in enumerate(ds.dims):
        if not d.is_real:
            ok, witness = False, f"d_{j} is not real"
            break
    if ok:
        if all(ds.dims):
            unitary = not isinstance(fusion_error, DegenerateSError)
        else:
            unitary = _projectively_unitary(datum, ds.global_dim_sq)
        if not unitary:
            ok, witness = False, "S*conj(S)^t != D^2*Id"
    reports.append(ConditionReport(1, "reality and unitarity", ok, witness))

    # (ii) (ST)^3 = p+ S^2, p+ p- = D^2, anomaly a root of unity
    ok, witness = True, ""
    if not ds.gauss_plus or not ds.gauss_minus:
        ok, witness = False, "vanishing Gauss sum"
    else:
        st = mat.scale_cols(datum.S, datum.thetas)
        lhs = mat.mat_pow(st, 3)
        rhs = mat.scale(mat.matmul(datum.S, datum.S), ds.gauss_plus)
        if not mat.mat_eq(lhs, rhs):
            ok, witness = False, "(ST)^3 != p+ S^2"
        elif ds.gauss_plus * ds.gauss_minus != ds.global_dim_sq:
            ok, witness = False, "p+ p- != D^2"
        elif not ds.anomaly.is_root_of_unity:
            ok, witness = False, "anomaly is not a root of unity"
    reports.append(ConditionReport(2, "Gauss sum relations", ok, witness))

    # (iii) Verlinde integrality
    ok, witness = fusion is not None, "" if fusion_error is None else str(fusion_error)
    reports.append(ConditionReport(3, "Verlinde integrality", ok, witness))

    # (iv) balancing
    if fusion is None:
        reports.append(ConditionReport(4, "balancing equation", False, "no fusion"))
    else:
        v = check_balancing(datum, fusion)
        reports.append(
            ConditionReport(4, "balancing equation", v.ok, str(v.witness or ""))
        )

    # (v) Frobenius-Schur indicators
    if fusion is None:
        reports.append(ConditionReport(5, "FS indicators", False, "no fusion"))
    else:
        ok, witness = True, ""
        table = _fs_table(datum, fusion)
        for k in range(r):
            nu2 = _twisted_sum(datum.torder, table[k].items(), 2)
            if fusion.dual[k] == k:
                if nu2 != ONE and nu2 != -ONE:
                    ok, witness = False, f"nu_2({k}) = {nu2} not +-1 on self-dual"
                    break
            elif nu2:
                ok, witness = False, f"nu_2({k}) != 0 on non-self-dual"
                break
        if ok:
            for n in range(1, N + 1):
                for k in range(r):
                    nu = _twisted_sum(datum.torder, table[k].items(), n)
                    if not nu.is_algebraic_integer or N % nu.order != 0:
                        ok = False
                        witness = f"nu_{n}({k}) not in Z[zeta_{N}]"
                        break
                if not ok:
                    break
        reports.append(ConditionReport(5, "FS indicators", ok, witness))

    # (vi) Galois structure of F_S inside F_T = Q_N
    ok, witness = True, ""
    profile = None
    cond_s = datum.s_field_conductor
    if N % cond_s != 0:
        ok, witness = False, f"F_S has conductor {cond_s}, not inside Q_{N}"
    else:
        from .galois import NotGaloisStable, compose, compute_profile

        try:
            profile = compute_profile(datum)
        except NotGaloisStable as exc:
            ok, witness = False, str(exc)
        else:
            idperm = tuple(range(r))
            for k, perm in profile.perms.items():
                if perm == idperm and any(
                    v.galois(k) != v for row in datum.S for v in row
                ):
                    ok = False
                    witness = f"sigma_{k} acts trivially on characters but moves S"
                    break
            if ok:
                perms = list(profile.perms.values())
                for a in perms:
                    for b in perms:
                        if compose(a, b) != compose(b, a):
                            ok, witness = False, "Galois image not abelian"
                            break
            if ok:
                for k in units_mod(N):
                    if all(v.galois(k) == v for row in datum.S for v in row):
                        if (k * k) % N != 1 % N:
                            ok = False
                            witness = f"Gal(F_T/F_S) has sigma_{k} of order > 2"
                            break
    reports.append(ConditionReport(6, "Galois field structure", ok, witness))

    # (vii) Cauchy: prime support of Norm(D^2) equals prime support of N
    ok, witness = True, ""
    if not ds.global_dim_sq:
        ok, witness = False, "D^2 = 0"
    else:
        left = norm_prime_support(ds.global_dim_sq)
        right = frozenset(factorize(N))
        if left != right:
            ok = False
            witness = f"supp Norm(D^2) = {sorted(left)} != supp N = {sorted(right)}"
    reports.append(ConditionReport(7, "Cauchy condition", ok, witness))

    return AdmissibilityReport(tuple(reports), profile)

