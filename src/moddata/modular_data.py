"""Modular data (S, T), Verlinde fusion, the character permutations h_sigma
of S and the seven-condition admissibility checker."""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Optional, Sequence, Union

from . import _matrix as mat
from .cyclotomic import (
    Cyclotomic,
    ONE,
    _canonical,
    _cap_caches,
    _check_order,
    _embedding,
    _galois_embedding,
    _norm_cofactor,
    _numerators_at,
    _reduce_exponents,
    _residue,
    _within_cap,
    dot,
    factorize,
    sum_cyclotomics,
    units_mod,
    zeta,
)

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


class NotGaloisStable(ValueError):
    """A Galois-transformed character column matches no column (condition (vi))."""


# ---------------------------------------------------------------------------
# immutable records


class Record:
    """Base of the package's immutable value types.

    The fields are the class annotations, in order, and __record_fields__
    names them; a class attribute gives a field's default.  The generated
    __init__ takes the fields as arguments, sets them and then calls
    __post_init__ when the class defines one.  == and hash read every
    field as one tuple, so a record hashes as the tuple of its fields.  repr
    is "Name(f=v, ...)", every field.  Assigning or deleting an attribute
    raises AttributeError; replace() makes a changed copy.
    """

    __record_fields__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__record_fields__ = (*cls.__record_fields__, *cls.__dict__.get("__annotations__", {}))
        defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        # One compile per class.  A plain signature lets Python bind and check the
        # arguments, and attribute loads in bytecode beat a generic getter.
        params = ", ".join(f"{n}=None" if n in defaults else n for n in fields)
        body = "".join(f"\n    __set(self, {n!r}, {n})" for n in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        mine, theirs = ("".join(f"{who}.{n}," for n in fields) for who in ("self", "other"))
        namespace: dict = {}
        exec(
            f"def __init__(self, {params}):{body or ' pass'}\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n",
            {"__set": object.__setattr__},
            namespace,
        )
        namespace["__init__"].__defaults__ = tuple(defaults.values()) or None
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes):
    """A copy of the record with the given fields changed (__post_init__
    runs again)."""
    return type(record)(**{**{n: getattr(record, n) for n in record.__record_fields__}, **changes})


class Verdict(Record):
    """Outcome of an exact check, with the first witness on failure and the
    name of the check."""

    ok: bool
    witness: object = None
    name: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _table_line(v: Verdict, width: int) -> str:
    """The report row "name PASS", or "name FAIL  [witness]"."""
    extra = f"  [{v.witness}]" if v.witness and not v.ok else ""
    return f"{v.name:<{width}} {'PASS' if v.ok else 'FAIL'}{extra}"


def _verdict_json(v: Verdict) -> dict:
    return {"name": v.name, "passed": v.ok, "witness": v.witness}


# ---------------------------------------------------------------------------
# the central object


class ModularDatum(Record):
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
        return _s_facts(self.S).conductor

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
            rank = _json_int(data["rank"], "rank")
            torder = _json_int(data["torder"], "torder")
            exps = tuple(_json_int(a, "t_exponents") for a in data["t_exponents"])
            parsed: dict = {}
            S = tuple(tuple(_parse_once(v, parsed) for v in row) for row in data["S"])
        except SchemaViolation:
            raise
        except Exception as exc:
            raise SchemaViolation(str(exc), "datum") from exc
        return cls(rank, torder, exps, S)


def _parse_once(entry, parsed: dict) -> Cyclotomic:
    """Cyclotomic.from_json(entry), parsed once per distinct entry in parsed.

    The key holds JSON-exact types only: "order": true or 1.0 would hash as
    1 and take a parsed value.  An entry with no such key goes to
    Cyclotomic.from_json, which names its fault."""
    try:
        key = entry["order"], tuple(entry["coeffs"].items())
        value = parsed.get(key) if type(key[0]) is int else None
    except (TypeError, KeyError, AttributeError):  # not a dict, or unhashable
        key = value = None
    if value is None:
        value = Cyclotomic.from_json(entry)
        if key is not None:
            parsed[key] = value
    return value


def _json_int(value, field: str) -> int:
    """A JSON integer; int() would also read a float, string or boolean."""
    if type(value) is not int:
        raise SchemaViolation(f"{field} must be an integer, not {type(value).__name__}", field)
    return value


def save(datum: ModularDatum, path: PathLike) -> None:
    Path(path).write_text(json.dumps(datum.to_json(), indent=1) + "\n", "utf-8")


def load(path: PathLike) -> ModularDatum:
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # nested past the decoder's depth
        raise SchemaViolation(f"malformed JSON: {exc}", str(path)) from exc
    return ModularDatum.from_json(data)


# ---------------------------------------------------------------------------
# derived scalars


class DerivedScalars(Record):
    """What the checks and lifts of one datum share, each formed once per
    datum (derived_scalars): the dimensions d_j, D^2, the twists theta_j,
    the Gauss sums p+- = sum_j d_j^2 theta_j^(+-1), whether p+ p- = D^2, and
    the anomaly alpha = p+ / p-, None when p- = 0; and, on first use, the
    first nonzero (j, k), j <= k, of R = T(ST)^2 - p+ S and whether (ST)^3 =
    p+ S^2, read by condition (ii), the twist equation and the lifts."""

    S: mat.Matrix
    dims: tuple[Cyclotomic, ...]
    global_dim_sq: Cyclotomic
    thetas: tuple[Cyclotomic, ...]
    gauss_plus: Cyclotomic
    gauss_minus: Cyclotomic
    gauss_product_is_d2: bool
    anomaly: Optional[Cyclotomic]

    @cached_property
    def twist_witness(self) -> Optional[tuple[int, int]]:
        return mat._st_first_nonzero(_s_facts(self.S), self.thetas, self.gauss_plus)

    @cached_property
    def st_cubed(self) -> bool:
        return self.twist_witness is None or mat._sr_is_zero(_s_facts(self.S), self.thetas, self.gauss_plus)


@lru_cache(maxsize=None)
def derived_scalars(datum: ModularDatum) -> DerivedScalars:
    """The DerivedScalars of datum.

    Each Gauss sum is one dot, canonicalised once.  When p+ p- = D^2 != 0,
    1/p- = p+ D^-2, so alpha = p+^2 D^-2 reads the D^-2 that _SFacts forms
    once per S and takes no norm inverse of its own.  Otherwise alpha =
    p+ p-^-1 as the definition reads, and None when p- = 0.
    """
    facts = _s_facts(datum.S)
    d2, thetas = facts.global_dim_sq, datum.thetas
    p_plus = dot(zip(facts.dims_sq, thetas))
    p_minus = dot(zip(facts.dims_sq, (th.conjugate() for th in thetas)))
    product_is_d2 = p_plus * p_minus == d2
    if product_is_d2 and d2:
        anomaly = p_plus * p_plus * facts.global_dim_sq_inv
    else:
        anomaly = p_plus * p_minus.inverse() if p_minus else None
    return DerivedScalars(datum.S, datum.dims, d2, thetas, p_plus, p_minus, product_is_d2, anomaly)


# ---------------------------------------------------------------------------
# Verlinde fusion


class FusionRules(Record):
    """Nonnegative-integer fusion tensor N_{ij}^k, which gives rank and dual."""

    tensor: Tensor

    @property
    def rank(self) -> int:
        return len(self.tensor)

    @cached_property
    def dual(self) -> tuple[int, ...]:
        """i* is the first k with N_ik^0 = 1; ValueError names the first i whose
        N_i.^0 holds no 1.  In a Verlinde tensor i* is the only such k:
        unitarity gives sum |d_a|^2 = D^2 = sum d_a^2, so each d_a is real and
        N^0 = S^2 / D^2, the square of the unitary symmetric S/D, is a unitary
        matrix of nonnegative integers: a symmetric permutation, with 0* = 0
        as (S^2)_0k = (S conj(S)^t)_k0."""
        columns = [[n[0] for n in plane] for plane in self.tensor]
        for i, column in enumerate(columns):
            if 1 not in column:
                raise ValueError(f"no k with N[{i},k]^0 = 1")
        return tuple(column.index(1) for column in columns)

    def n(self, i: int, j: int, k: int) -> int:
        return self.tensor[i][j][k]

    def matrix(self, i: int) -> list[list[int]]:
        """Fusion matrix N_i with (N_i)_{kj} = N_{ij}^k."""
        return [list(col) for col in zip(*self.tensor[i])]

    def verify_invariants(self) -> list[str]:
        """All violated fusion-ring identities (empty when consistent); with no
        dual, only the first i's "no k with N[i,k]^0 = 1", as the others read i*."""
        r, N = self.rank, self.tensor
        try:
            dual = self.dual
        except ValueError as missing:
            return [str(missing)]
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
    """Exact fusion rules N_{ij}^k = (1/D^2) sum_a S_ia S_ja conj(S_ka) / S_0a,
    computed once per S (_s_facts); a failure raises again as it first did.
    derived_scalars runs first, so that a datum whose twists or Gauss sums
    lie past the order cap is refused whatever its S."""
    derived_scalars(datum)
    fusion = _s_facts(datum.S).fusion
    if isinstance(fusion, FusionComputationError):
        raise fusion.with_traceback(None)
    return fusion


def _fusion_rules(facts: "_SFacts") -> FusionRules:
    """The Verlinde fusion rules of facts.S: projective unitarity, then the
    tensor from residues (_modular_tensor) or else entry by entry."""
    if any(not d for d in facts.S[0]):
        raise DegenerateSError("vanishing entry in the first row of S")
    if not facts.unitary:
        raise DegenerateSError("S * conj(S)^t != D^2 * Id")
    tensor = _modular_tensor(facts) or _exact_tensor(facts.S, facts.global_dim_sq)
    return FusionRules(tuple(tuple(map(tuple, plane)) for plane in tensor))


def _modular_tensor(facts: "_SFacts") -> Optional[list[list[list[int]]]]:
    """The Verlinde tensor of S from residues, for S conj(S)^t = D^2 Id, or None.

    The candidate N_ij^k is the Verlinde formula mod the first prime ell of
    the order of S, read in [0, ell/2].  It is certified by sum_k N_ij^k S_ka
    S_0a = S_ia S_ja for all i <= j and all a, decided by _first_nonzero.
    The Verlinde tensor solves that system, and S is invertible, so it is
    its only solution.  None when a candidate lies past ell/2, a residue
    that the formula divides by is 0, or the certificate fails."""
    r, n, flat = len(facts.S), facts.conductor, facts.flat
    emb = _embedding(n, 0)
    ell = emb[0]
    try:
        res, res_conj, res_d2 = facts.residues(emb), facts.residues(emb, -1), _residue(facts.global_dim_sq, n, emb)
        scale = [pow(d * res_d2, -1, ell) for d in res[0]]
    except ValueError:  # ell divides a denominator, or a residue is not invertible
        return None
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        weighted = [x * w % ell for x, w in zip(res[i], scale)]  # S_ia / (S_0a D^2)
        for j in range(i, r):
            pair = [x * y for x, y in zip(weighted, res[j])]
            for k in range(r):
                value = sum(map(mul, pair, res_conj[k])) % ell
                if value > ell // 2:
                    return None
                tensor[i][j][k] = tensor[j][i][k] = value

    def entries(n, emb):
        res = facts.residues(emb)
        cols = list(zip(*res))
        for i in range(r):
            for j in range(i, r):
                counts = tensor[i][j]
                for a, col in enumerate(cols):
                    yield col[0] * sum(map(mul, counts, col)) - res[i][a] * res[j][a]

    most = max(sum(row) for plane in tensor for row in plane)
    return tensor if mat._first_nonzero(((most, flat, flat), (1, flat, flat)), entries) is None else None


def _exact_tensor(S: mat.Matrix, d2: Cyclotomic) -> list[list[list[int]]]:
    """The Verlinde tensor entry by entry, each one exact dot; raises
    NotFusionIntegral at the first (i, j, k), i <= j, that is not a
    nonnegative integer."""
    r = len(S)
    conj_rows = [[v.conjugate() for v in row] for row in S]
    d2_inv = d2.inverse()
    # weighted[i][a] = S_ia / (S_0a D^2)
    weights = [d.inverse() * d2_inv for d in S[0]]
    weighted = [[v * w for v, w in zip(row, weights)] for row in S]
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            pair = [w * v for w, v in zip(weighted[i], S[j])]
            for k in range(r):
                value = dot(zip(pair, conj_rows[k]))
                if not value.is_integer or value.as_integer() < 0:
                    raise NotFusionIntegral(i, j, k, value)
                tensor[i][j][k] = tensor[j][i][k] = value.as_integer()
    return tensor


def _projectively_unitary(facts: "_SFacts", d2: Cyclotomic) -> bool:
    """S conj(S)^t == d2 Id, decided from residues of the entries (i, j),
    i <= j.

    S is symmetric, so conj(S)^t = conj(S), and entry (j, i) of S conj(S) is
    the conjugate of entry (i, j): the entries with i <= j decide it."""
    r, flat = len(facts.S), facts.flat

    def entries(n, emb):
        res, res_conj = facts.residues(emb), facts.residues(emb, -1)
        res_d2 = _residue(d2, n, emb)
        for i, row in enumerate(res):
            for j in range(i, r):
                yield sum(map(mul, row, res_conj[j])) - (res_d2 if i == j else 0)

    return mat._first_nonzero(((r, flat, flat), (1, [d2])), entries) is None


# ---------------------------------------------------------------------------
# h_sigma: the Galois symmetry of the character columns of S


Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    """a then b: i -> b[a[i]]."""
    return tuple(b[a[i]] for i in range(len(a)))


def _closure(seed: Hashable, step: Callable, gens: Collection) -> frozenset:
    """Everything seed reaches by repeated steps x -> step(x, g), g in gens."""
    reached = {seed}
    frontier = [seed]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = step(cur, g)
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return frozenset(reached)


def _characters(S: Sequence[Sequence[Cyclotomic]]) -> list[tuple[Cyclotomic, ...]]:
    r = len(S)
    if any(not S[0][a] for a in range(r)):
        raise NotGaloisStable("vanishing first-row entry: characters undefined")
    cols = []
    for a in range(r):
        inv = S[0][a].inverse()
        cols.append(tuple(S[i][a] * inv for i in range(r)))
    return cols


def _match_permutation(
    cols: Sequence[tuple[Cyclotomic, ...]], k: int
) -> Perm:
    index: dict[tuple[Cyclotomic, ...], int] = {}
    for a, col in enumerate(cols):
        if col in index:
            raise NotGaloisStable(f"duplicate character columns {index[col]}, {a}")
        index[col] = a
    perm = []
    for a, col in enumerate(cols):
        target = index.get(tuple(v.galois(k) for v in col))
        if target is None:
            raise NotGaloisStable(f"sigma_{k} sends character {a} to no column")
        perm.append(target)
    return tuple(perm)


def _exact_perms(cols: Sequence[tuple[Cyclotomic, ...]], units: Iterable[int]) -> dict[int, Perm]:
    """h_sigma_k for each k in units, matched on canonical character values
    in that order, so that NotGaloisStable names the first fault."""
    return {k: _match_permutation(cols, k) for k in units}


def _residue_perms(facts: "_SFacts", units: Sequence[int]) -> Optional[dict[int, Perm]]:
    """h_sigma for every unit mod cond, the conductor of S, with no canonical
    character value; None when a step fails, and the caller then matches
    every unit exactly, so that its NotGaloisStable names the first fault.

    S_ia / S_0a is read mod one prime ell of _embedding(cond, i), and
    sigma_k(x) at zeta -> g is x at zeta -> g^k: the same residues with the
    powers table permuted by k, a table of facts.residues.  Distinct residue
    columns prove the columns distinct.  h is then matched only on
    generators of (Z/cond)^x, each match certified by sigma_k(S_ia) S_0b =
    S_ib sigma_k(S_0a) for all i, and extended by h_kl = h_k h_l, a
    homomorphism as the columns are distinct.  None at a zero S_0a or a zero
    residue of one, a residue collision, an unmatched or uncertified
    generator, or a conductor past the order cap."""
    S, cond, r, flat = facts.S, facts.conductor, len(facts.S), facts.flat
    if not all(S[0]) or not _within_cap(cond):
        return None
    den, i = lcm(*(v._den for v in flat)), 0
    while den % _embedding(cond, i)[0] == 0:  # zeta -> g is not defined on S
        i += 1
    read = _embedding(cond, i)
    ell = read[0]

    def columns(k):
        res = facts.residues(read, k)
        inverses = [pow(x, -1, ell) for x in res[0]]  # ValueError at a zero
        return [tuple(row[a] * inv % ell for row in res) for a, inv in enumerate(inverses)]

    gens: list[int] = []
    reached = {1}
    for k in units:  # a generating set of (Z/cond)^x, in the order of the units
        if k not in reached:
            gens.append(k)
            reached = _closure(1, lambda x, g: x * g % cond, gens)
    try:
        index = {col: a for a, col in enumerate(columns(1))}
        if len(index) < r:
            return None
        matched = {k: tuple(map(index.__getitem__, columns(k))) for k in gens}
    except (ValueError, KeyError):  # a zero residue, or an unmatched column
        return None

    def entries(n, emb):
        res = facts.residues(emb)
        for k, perm in matched.items():
            image = facts.residues(emb, k)
            for a, b in enumerate(perm):
                for i in range(r):
                    yield image[i][a] * res[0][b] - res[i][b] * image[0][a]

    if mat._first_nonzero(((2, flat, flat),), entries) is not None:
        return None
    perms = dict(_closure(
        (1, tuple(range(r))),
        lambda x, g: (x[0] * g[0] % cond, compose(x[1], g[1])),
        matched.items(),
    ))
    return {k: perms[k] for k in units}


# ---------------------------------------------------------------------------
# what depends on S alone


class _SFacts:
    """What depends on S alone, each field computed on first use and shared
    by every datum and every rep over S in a process (_s_facts).

    fusion is the FusionRules or the FusionComputationError that computing
    them raised.  h_sigma is (c, {k: h_sigma_k for k in units_mod(c)}) for c
    the conductor of F_S, read from residues or else matched exactly on the
    character columns, or the NotGaloisStable that the match raised.
    residues gives the residue tables of S and flat its entries, row by row,
    that every identity over S reads: each in _matrix takes this record as
    the one argument for its matrix, uncached (_SFacts(s)) for a bare s."""

    def __init__(self, S: mat.Matrix):
        self.S = S
        self._tables: dict[tuple[int, int, int], list[list[int]]] = {}

    def residues(self, emb: tuple[int, tuple[int, ...]], k: int = 1) -> list[list[int]]:
        """The residues of sigma_k(S) at emb = _embedding(n, i), formed once per
        (n, ell, k); ValueError, and nothing kept, when ell divides a denominator."""
        n = len(emb[1])
        table = self._tables.get((n, emb[0], k))
        if table is None:
            image = emb if k == 1 else _galois_embedding(emb, k)
            table = self._tables[n, emb[0], k] = [[_residue(v, n, image) for v in row] for row in self.S]
        return table

    @cached_property
    def flat(self) -> list[Cyclotomic]:
        return [v for row in self.S for v in row]

    @cached_property
    def dims_sq(self) -> list[Cyclotomic]:
        return [d * d for d in self.S[0]]

    @cached_property
    def global_dim_sq(self) -> Cyclotomic:
        return sum_cyclotomics(self.dims_sq)

    @cached_property
    def global_dim_sq_inv(self) -> Cyclotomic:
        return self.global_dim_sq.inverse()

    @cached_property
    def dims_over_global(self) -> list[Cyclotomic]:
        """d_i D^-2."""
        return [d * self.global_dim_sq_inv for d in self.S[0]]

    @cached_property
    def unitary(self) -> bool:
        return _projectively_unitary(self, self.global_dim_sq)

    @cached_property
    def fusion(self) -> Union[FusionRules, FusionComputationError]:
        try:
            return _fusion_rules(self)
        except FusionComputationError as exc:
            return exc

    @cached_property
    def norm_primes(self) -> frozenset[int]:
        """The primes of Norm(D^2), the rational field norm of D^2 over its
        conductor field."""
        d2 = self.global_dim_sq
        q = (d2 * _norm_cofactor(d2)).as_rational()
        return frozenset({*factorize(abs(q.numerator)), *factorize(q.denominator)})

    @cached_property
    def conductor(self) -> int:
        return lcm(*(v.order for v in self.flat))

    @cached_property
    def square_and_fourth(self) -> tuple[Optional[Cyclotomic], Optional[Cyclotomic]]:
        return mat._square_and_fourth(self)

    @cached_property
    def h_sigma(self) -> Union[tuple[int, dict[int, Perm]], NotGaloisStable]:
        c, S = self.conductor, self.S
        units = units_mod(c)
        try:
            return c, _residue_perms(self, units) or _exact_perms(_characters(S), units)
        except NotGaloisStable as exc:
            return exc


@lru_cache(maxsize=None)
def _s_facts(S: mat.Matrix) -> _SFacts:
    return _SFacts(S)


_cap_caches.extend((derived_scalars.cache_clear, verlinde_fusion.cache_clear, _s_facts.cache_clear))


# ---------------------------------------------------------------------------
# exact identities, decided from residues


def _shared_rank(datum: ModularDatum, fusion: FusionRules) -> int:
    """The rank of datum and of fusion; ValueError naming both when they differ."""
    if fusion.rank != datum.rank:
        raise ValueError(f"fusion rules of rank {fusion.rank} for a datum of rank {datum.rank}")
    return datum.rank


def check_balancing(datum: ModularDatum, fusion: FusionRules) -> Verdict:
    """theta_i theta_j S_ij = sum_k N_{i* j}^k d_k theta_k; the witness is
    the first (i, j) where it fails."""
    r, thetas, facts = _shared_rank(datum, fusion), derived_scalars(datum).thetas, _s_facts(datum.S)

    def entries(n, emb):
        res = facts.residues(emb)
        res_t = [_residue(v, n, emb) for v in thetas]
        terms = [d * th for d, th in zip(res[0], res_t)]  # d_k theta_k
        for i in range(r):
            plane = fusion.tensor[fusion.dual[i]]
            for j in range(r):
                yield res_t[i] * res_t[j] * res[i][j] - sum(map(mul, plane[j], terms))

    most = max(sum(row) for plane in fusion.tensor for row in plane)
    index = mat._first_nonzero(((1, thetas, thetas, facts.flat), (most, facts.flat, thetas)), entries)
    return Verdict(True) if index is None else Verdict(False, divmod(index, r), "balancing equation fails")


def check_twist_equation(datum: ModularDatum) -> Verdict:
    """p+ S_jk = theta_j theta_k sum_i theta_i S_ij S_ik: the residual of
    (ST)^3 = p+ S^2 is 0.  The witness is its first nonzero (j, k), j <= k."""
    witness = derived_scalars(datum).twist_witness
    return Verdict(True) if witness is None else Verdict(False, witness, "twist equation fails")


def _fs_numerators(datum: ModularDatum, fusion: FusionRules) -> tuple[int, int, Callable, list]:
    """(L, den, nu, dims): nu(n, k) and dims[k] are the numerators of den nu_n(k)
    and of den d_k on the power basis of Q_L, an integral basis, for L = lcm(ord(T),
    the conductors of each d_i and of D^-2).  nu_n(k) sums D^-2 N_ij^k d_i d_j
    (theta_i / theta_j)^n over i, j (Ng-Schauenburg); each theta_i is a power of zeta_L."""
    N, r, exps, dims = datum.torder, _shared_rank(datum, fusion), datum.t_exponents, datum.dims
    facts = _s_facts(datum.S)
    L = lcm(datum.ord_t, facts.global_dim_sq_inv.order, *(d.order for d in dims))
    _check_order(L)
    left, right = ([_numerators_at(x, L) for x in xs] for xs in (facts.dims_over_global, dims))
    lden, rden = lcm(*(q for _, q in left)), lcm(*(q for _, q in right))
    rows: list[dict[int, dict]] = [{} for _ in range(r)]  # rows[k][delta L / N]
    for i, j, k in product(range(r), repeat=3):
        if fusion.tensor[i][j][k]:  # N_ij^k copies of lden rden D^-2 d_i d_j
            (a, p), (b, q) = left[i], right[j]
            f = fusion.tensor[i][j][k] * (lden // p) * (rden // q)
            acc = rows[k].setdefault((exps[i] - exps[j]) % N * L // N, {})
            for (e1, c1), (e2, c2) in product(a.items(), b.items()):
                acc[e1 + e2] = acc.get(e1 + e2, 0) + f * c1 * c2
    rows = [[(s, _reduce_exponents(L, acc)) for s, acc in row.items()] for row in rows]

    def nu(n: int, k: int) -> dict[int, int]:
        raw: dict[int, int] = {}
        for s, nums in rows[k]:
            shift = n * s % L
            for e, c in nums.items():
                e += shift
                raw[e] = raw.get(e, 0) + c
        return _reduce_exponents(L, raw)

    return L, lden * rden, nu, [{e: c * lden * (rden // q) for e, c in p.items()} for p, q in right]


def fs_indicator(datum: ModularDatum, fusion: FusionRules, n: int, k: int) -> Cyclotomic:
    """Frobenius-Schur indicator nu_n(k), exact."""
    if not 0 <= k < datum.rank:
        raise ValueError(f"label {k} is not in 0..{datum.rank - 1}")
    L, den, nu, _ = _fs_numerators(datum, fusion)
    return Cyclotomic._raw(*_canonical(L, nu(n, k), den))


def fs_exponent(datum: ModularDatum, fusion: FusionRules) -> int:
    """Minimal n with nu_n(k) = d_k for all k.

    (theta_i / theta_j)^n is ord(T)-periodic in n, so n = 1..ord(T) is
    exhaustive, below the spec cap of 12 ord(T).  With the datum's own
    Verlinde tensor n = ord(T) qualifies, as sum_ij N_ij^k d_i d_j = D^2 d_k:
    only a foreign fusion reaches FSExponentNotFound."""
    nu, dims = _fs_numerators(datum, fusion)[2:]
    for n in range(1, datum.ord_t + 1):
        if all(nu(n, k) == d for k, d in enumerate(dims)):
            return n
    raise FSExponentNotFound(f"no Frobenius-Schur exponent up to ord(T) = {datum.ord_t}")


# ---------------------------------------------------------------------------
# admissibility


class AdmissibilityReport(Record):
    # conditions (i)-(vii) in order, each witness a string
    conditions: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self) -> list[tuple[int, Verdict]]:
        """(index, verdict) of each failing condition, indices from 1."""
        return [(i, c) for i, c in enumerate(self.conditions, 1) if not c.ok]

    def format_table(self) -> str:
        lines = [f"({i}) {_table_line(c, 24)}" for i, c in enumerate(self.conditions, 1)]
        lines.append(f"overall: {'admissible' if self.passed else 'NOT admissible'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "passed": self.passed,
            "conditions": [
                {"index": i, **_verdict_json(c)} for i, c in enumerate(self.conditions, 1)
            ],
        }


class CauchySupport(Record):
    norm_primes: frozenset[int]
    torder_primes: frozenset[int]
    ok: bool


def cauchy_prime_support(datum: ModularDatum) -> CauchySupport:
    """Prime support of Norm(D^2) versus the prime support of ord(T)."""
    left = _s_facts(datum.S).norm_primes
    right = frozenset(factorize(datum.ord_t))
    return CauchySupport(left, right, left == right)


_CONDITION_NAMES = (
    "reality and unitarity", "Gauss sum relations", "Verlinde integrality",
    "balancing equation", "FS indicators", "Galois field structure", "Cauchy condition",
)


def _reality_and_unitarity(datum: ModularDatum) -> str:
    # (i) reality, projective unitarity, finite twist order; S is symmetric
    # since ModularDatum rejects any other.  verlinde_fusion reads the same
    # unitarity field, so the test runs once per S.  Unitarity gives
    # sum |d_a|^2 = D^2 = sum d_a^2, so every d_a is real: the dimensions
    # are scanned only to name the witness of a failure
    if _s_facts(datum.S).unitary:
        return ""
    j = next((j for j, d in enumerate(datum.dims) if not d.is_real), None)
    return "S*conj(S)^t != D^2*Id" if j is None else f"d_{j} is not real"


def _gauss_sum_relations(ds: DerivedScalars) -> str:
    """(ii) (ST)^3 = p+ S^2, p+ p- = D^2 and the anomaly a root of unity.

    Every scalar and verdict is read from ds: derived_scalars decided p+ p-
    = D^2 when it formed the anomaly, so no product is taken here."""
    if not ds.gauss_plus or not ds.gauss_minus:
        return "vanishing Gauss sum"
    if not ds.st_cubed:
        return "(ST)^3 != p+ S^2"
    if not ds.gauss_product_is_d2:
        return "p+ p- != D^2"
    if not ds.anomaly.is_root_of_unity:
        return "anomaly is not a root of unity"
    return ""


def _fs_indicators(datum: ModularDatum, fusion: Optional[FusionRules]) -> str:
    # (v) Frobenius-Schur indicators, decided on integer numerators
    if fusion is None:
        return "no fusion"
    N = datum.ord_t
    L, den, nu, _ = _fs_numerators(datum, fusion)
    for k in range(datum.rank):
        nu2 = nu(2, k)
        if fusion.dual[k] == k and nu2 not in ({0: den}, {0: -den}):
            return f"nu_2({k}) = {Cyclotomic._raw(*_canonical(L, nu2, den))} not +-1 on self-dual"
        if fusion.dual[k] != k and nu2:
            return f"nu_2({k}) != 0 on non-self-dual"
    # nu_n = nu_(N-n) because the Verlinde tensor that check_admissible passes
    # in has N_ij^k = N_ji^k, so n = 1..N/2 and then N meet the first failing
    # (n, k) of n = 1..N.  The loop above proved every nu_2(k) 0 or +-1, so
    # n = 2 is skipped.  nu_n(k) lies in Z[zeta_N] iff den divides its
    # numerators and its conductor divides N.
    for n in [m for m in (*range(1, N // 2 + 1), N) if m != 2]:
        for k in range(datum.rank):
            nums = nu(n, k)
            if any(c % den for c in nums.values()) or (L != N and N % _canonical(L, nums, den)[0]):
                return f"nu_{n}({k}) not in Z[zeta_{N}]"
    return ""


def _galois_field_structure(datum: ModularDatum) -> str:
    # (vi) Galois structure of F_S inside F_T = Q_N
    N = datum.ord_t
    cond_s = datum.s_field_conductor
    if N % cond_s != 0:
        return f"F_S has conductor {cond_s}, not inside Q_{N}"
    h_sigma = _s_facts(datum.S).h_sigma
    if isinstance(h_sigma, NotGaloisStable):
        return str(h_sigma)
    # Two clauses hold for every h_sigma, so neither is checked.  The image
    # of h is abelian: the columns are distinct (the match refuses others),
    # so sigma_k sigma_l = sigma_kl gives h_kl = h_k h_l, and
    # (Z/c)^x is abelian.  A sigma with h_sigma = id fixes S: S is symmetric
    # with S_00 = 1, so column 0 is (S_i0) = (d_i), and sigma fixes every
    # d_a and every S_ia / d_a, hence every S_ia.  Conversely a sigma that
    # fixes S fixes every column, so Gal(F_T/F_S) is read off h_sigma.
    identity = tuple(range(datum.rank))
    fixing = {k % cond_s for k, perm in h_sigma[1].items() if perm == identity}
    k = next((k for k in units_mod(N) if k * k % N != 1 % N and k % cond_s in fixing), None)
    return "" if k is None else f"Gal(F_T/F_S) has sigma_{k} of order > 2"


def _cauchy_condition(datum: ModularDatum, ds: DerivedScalars) -> str:
    # (vii) Cauchy: prime support of Norm(D^2) equals prime support of N
    if not ds.global_dim_sq:
        return "D^2 = 0"
    support = cauchy_prime_support(datum)
    if support.ok:
        return ""
    return (
        f"supp Norm(D^2) = {sorted(support.norm_primes)}"
        f" != supp N = {sorted(support.torder_primes)}"
    )


def check_admissible(datum: ModularDatum) -> AdmissibilityReport:
    """Evaluate the seven admissibility conditions, all exactly.

    Each condition is one function that returns its first witness, a
    non-empty string, when it fails and "" when it holds, so its report row
    is Verdict(not witness, witness, name).  They run in order (i) to (vii).
    """
    ds = derived_scalars(datum)
    try:
        fusion, fusion_error = verlinde_fusion(datum), None
    except FusionComputationError as exc:
        fusion, fusion_error = None, exc

    witnesses = [
        _reality_and_unitarity(datum),
        _gauss_sum_relations(ds),
        "" if fusion_error is None else str(fusion_error),
        "no fusion" if fusion is None else str(check_balancing(datum, fusion).witness or ""),
        _fs_indicators(datum, fusion),
        _galois_field_structure(datum),
        _cauchy_condition(datum, ds),
    ]
    rows = zip(witnesses, _CONDITION_NAMES)
    return AdmissibilityReport(tuple(Verdict(not w, w, name) for w, name in rows))
