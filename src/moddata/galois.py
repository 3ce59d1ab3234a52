"""Galois action on modular data: character permutations h_sigma, sign
functions eps_sigma, orbits, and the structural exclusion predicates."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import TYPE_CHECKING, Optional, Sequence

from .cyclotomic import Cyclotomic, NotAUnitError, ONE, euler_phi, units_mod
from .modular_data import (
    ModularDatum,
    Verdict,
    derived_scalars,
    dual_from_s,
)

if TYPE_CHECKING:  # pragma: no cover
    from .sl2z_reps import ModularRep


class NotGaloisStable(ValueError):
    """A Galois-transformed character column matches no column (condition (vi))."""


class NotGaloisSymmetric(ValueError):
    """No sign vector satisfies sigma(s_ij) = eps(i) s_{h(i) j}."""


Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    """a then b: i -> b[a[i]]."""
    return tuple(b[a[i]] for i in range(len(a)))


def cycle_type(perm: Perm) -> list[list[int]]:
    """Nontrivial cycles of the permutation, each starting at its minimum."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = perm[cur]
        cycles.append(cyc)
    return cycles


@dataclass(frozen=True)
class GaloisProfile:
    """The h_sigma action of Gal(F_S/Q) realized as units mod the conductor."""

    field_conductor: int
    units: tuple[int, ...]
    perms: dict[int, Perm]
    orbits: tuple[tuple[int, ...], ...]
    signs: dict[int, tuple[int, ...]]

    def image(self) -> frozenset[Perm]:
        return frozenset(self.perms.values())

    def orbit_of(self, j: int) -> tuple[int, ...]:
        for orbit in self.orbits:
            if j in orbit:
                return orbit
        raise KeyError(j)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "conductor": self.field_conductor,
            "units": list(self.units),
            "permutations": {str(k): list(p) for k, p in self.perms.items()},
            "signs": {str(k): list(s) for k, s in self.signs.items()},
            "orbits": [list(o) for o in self.orbits],
        }


def _characters(S: Sequence[Sequence[Cyclotomic]]) -> list[tuple[Cyclotomic, ...]]:
    r = len(S)
    if any(not S[0][a] for a in range(r)):
        raise NotGaloisStable("vanishing first-row entry: characters undefined")
    cols = []
    for a in range(r):
        inv = S[0][a].inverse()
        cols.append(tuple(S[i][a] * inv for i in range(r)))
    return cols


def _rep_characters(rep: "ModularRep") -> Sequence[tuple[Cyclotomic, ...]]:
    """The character columns of rep.s: the ones the lift builder stored, else
    computed from s (a rep built by hand)."""
    return rep.characters if rep.characters is not None else _characters(rep.s)


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


def compute_profile(
    datum: ModularDatum, rep: Optional["ModularRep"] = None
) -> GaloisProfile:
    """h_sigma for every unit mod conductor(F_S), with orbits.

    Signs are filled in when a normalized pair is supplied (they depend on it):
    each unit is extended to a unit modulo the rep's scalar field.
    """
    cond = datum.s_field_conductor
    cols = _characters(datum.S)
    units = tuple(units_mod(cond))
    perms = {k: _match_permutation(cols, k) for k in units}
    orbits = _orbits_from_perms(datum.rank, perms.values())
    signs: dict[int, tuple[int, ...]] = {}
    if rep is not None:
        modulus = _rep_field_modulus(rep)
        for k in units:
            k_ext = _extend_unit(k, cond, modulus)
            signs[k] = sign_function(rep, k_ext)
    return GaloisProfile(cond, units, perms, orbits, signs)


def _orbits_from_perms(rank: int, perms) -> tuple[tuple[int, ...], ...]:
    parent = list(range(rank))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i, j in enumerate(perm):
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(rank):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def _rep_field_modulus(rep: "ModularRep") -> int:
    return lcm(*(v.order for row in rep.s for v in row), *(v.order for v in rep.t))


def _extend_unit(k: int, cond: int, modulus: int) -> int:
    modulus = lcm(modulus, cond)
    for cand in range(k % cond, modulus + 1, cond):
        if cand and gcd(cand, modulus) == 1:
            return cand
    raise NotAUnitError(f"cannot extend unit {k} mod {cond} to mod {modulus}")


def sign_function(rep: "ModularRep", k: int) -> tuple[int, ...]:
    """eps_sigma with sigma(s_ij) = eps(i) s_{h(i) j} = eps(j) s_{i h(j)}."""
    s = rep.s
    r = len(s)
    perm = _match_permutation(_rep_characters(rep), k)
    eps = []
    for i in range(r):
        j0 = next((j for j in range(r) if s[perm[i]][j]), None)
        if j0 is None:
            raise NotGaloisSymmetric(f"zero row {perm[i]} in s")
        image, target = s[i][j0].galois(k), s[perm[i]][j0]
        if image == target:
            eps.append(1)
        elif image == -target:
            eps.append(-1)
        else:
            raise NotGaloisSymmetric(f"sigma_{k}(s[{i}]) is not +-row {perm[i]}")
    for i in range(r):
        for j in range(r):
            img = s[i][j].galois(k)
            if img != eps[i] * s[perm[i]][j] or img != eps[j] * s[i][perm[j]]:
                raise NotGaloisSymmetric(
                    f"sign vector inconsistent at ({i},{j}) for sigma_{k}"
                )
    return tuple(eps)


def g_matrix(rep: "ModularRep", k: int):
    """G_sigma = sigma(s) s^(-1) = sigma(s) s^3; a signed permutation matrix."""
    from . import _matrix as mat

    sigma_s = tuple(tuple(v.galois(k) for v in row) for row in rep.s)
    s_inv = mat.mat_pow(rep.s, 3)
    return mat.matmul(sigma_s, s_inv)


def galois_twist_symmetry(rep: "ModularRep") -> Verdict:
    """Theorem-level identity sigma^2(t_i) = t_{h_sigma(i)} over Gal(Q_n/Q).

    Every t_i must be a root of unity zeta_m^j with m | n, as in every lift
    the package builds; ValueError names the first t_i that is not.  The
    image sigma_k^2(t_i) = zeta_m^(j k^2) is compared with t_h(i) by its log.
    h_sigma depends on k only modulo the conductor of the character values,
    so it is matched once per residue class, at the first k of the class.
    """
    cols = _rep_characters(rep)
    cond = lcm(*(v.conductor for col in cols for v in col))
    n = rep.level
    logs = [t.root_of_unity_log() for t in rep.t]
    for i, log in enumerate(logs):
        if log is None or n % log[0]:
            raise ValueError(f"t_{i} is not a root of unity of order dividing the level {n}")
    perms: dict[int, Perm] = {}
    for k in units_mod(n):
        perm = perms.get(k % cond)
        if perm is None:
            perm = perms[k % cond] = _match_permutation(cols, k)
        k_squared = k * k % n
        for i, (m, j) in enumerate(logs):
            if (m, j * k_squared % m) != logs[perm[i]]:
                return Verdict(False, (k, i), "sigma^2(t_i) != t_{h(i)}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# dimension classification


@dataclass(frozen=True)
class DimensionClass:
    label: str  # integral | weakly-integral | pseudo-unitary-candidate | generic
    fp_column: Optional[int]
    fp_unit: Optional[int]
    dims_constant_on_orbits: Optional[bool]


def classify_dimensions(datum: ModularDatum, profile: GaloisProfile) -> DimensionClass:
    """Integrality class of the dimensions, with the pseudo-unitarizing unit."""
    ds = derived_scalars(datum)
    orbit0 = profile.orbit_of(0)
    fp_column = _fp_column(datum)
    fp_unit = None
    if fp_column is not None:
        fp_unit = next(
            (k for k, p in profile.perms.items() if p[0] == fp_column), None
        )
    constant = None
    if ds.global_dim_sq.is_integer and all(
        _numeric_positive(d) for d in ds.dims
    ):
        constant = all(
            ds.dims[p[a]] == ds.dims[a]
            for p in profile.perms.values()
            for a in range(datum.rank)
        )
    outside = [j for j in range(datum.rank) if j not in orbit0]
    if len(orbit0) == 1:
        label = "integral"
    elif ds.global_dim_sq.is_integer:
        label = "weakly-integral"
    elif outside and all(len(profile.orbit_of(j)) == 1 for j in outside):
        label = "pseudo-unitary-candidate"
    else:
        label = "generic"
    return DimensionClass(label, fp_column, fp_unit, constant)


def _fp_column(datum: ModularDatum) -> Optional[int]:
    """Column whose character values are all positive reals (Frobenius-Perron).

    Numeric identification only; never feeds an exact equality decision.
    """
    cols = _characters(datum.S)
    for a, col in enumerate(cols):
        if all(_numeric_positive(v) for v in col):
            return a
    return None


def _numeric_positive(x: Cyclotomic) -> bool:
    """x > 0 at the principal embedding, by floats with a 1e-9 tolerance."""
    z = x.complex_eval()
    return abs(z.imag) < 1e-9 and z.real > 1e-9


# ---------------------------------------------------------------------------
# exclusion predicates


@dataclass(frozen=True)
class NamedVerdict:
    name: str
    ok: bool
    witness: str = ""


def exclusion_predicates(
    datum: ModularDatum, profile: GaloisProfile
) -> list[NamedVerdict]:
    """Checkable instances of the forbidden-permutation and transposition lemmas."""
    out: list[NamedVerdict] = []
    r = datum.rank
    if r >= 5 and r % 2 == 1:
        out.append(_no_c61_pattern(r, profile))
        out.append(_no_c62_pattern(datum, profile))
    image = profile.image()
    transpositions = [
        p for p in image if len(cycle_type(p)) == 1 and len(cycle_type(p)[0]) == 2
    ]
    if r >= 5 and len(image) == 2 and transpositions:
        two_cycle = cycle_type(transpositions[0])[0]
        if 0 in two_cycle:
            out.extend(_transposition_lemma(datum, two_cycle))
    return out


def _no_c61_pattern(r: int, profile: GaloisProfile) -> NamedVerdict:
    # forbidden: a 2-cycle through 0 together with an (r-2)-cycle
    for perm in profile.image():
        cycles = cycle_type(perm)
        if sorted(len(c) for c in cycles) == [2, r - 2]:
            two = next(c for c in cycles if len(c) == 2)
            if 0 in two:
                return NamedVerdict(
                    "no (0 a)(r-2 cycle) element", False, f"found {perm}"
                )
    return NamedVerdict("no (0 a)(r-2 cycle) element", True)


def _no_c62_pattern(datum: ModularDatum, profile: GaloisProfile) -> NamedVerdict:
    # forbidden: 0 inside an (r-2)-cycle next to a transposition of self-dual labels
    r = datum.rank
    dual = dual_from_s(datum)
    name = "no (r-2 cycle through 0)(a b) element"
    for perm in profile.image():
        cycles = cycle_type(perm)
        if sorted(len(c) for c in cycles) == [2, r - 2]:
            big = next(c for c in cycles if len(c) == r - 2)
            two = next(c for c in cycles if len(c) == 2)
            if 0 in big and (
                dual is None or all(dual[x] == x for x in two)
            ):
                return NamedVerdict(name, False, f"found {perm}")
    return NamedVerdict(name, True)


def _transposition_lemma(
    datum: ModularDatum, swap: Sequence[int]
) -> list[NamedVerdict]:
    """Clauses of the Gal = <(0 1)> lemma: integrality of traces/norms and the
    sign pattern eps_j = S_{1j}/d_j with its zero consequences."""
    out = []
    one = swap[0] if swap[1] == 0 else swap[1]
    ds = derived_scalars(datum)
    d1 = ds.dims[one]
    out.append(
        NamedVerdict("d_1 > 0", _numeric_positive(d1), f"d_{one} = {d1}")
    )
    d1_inv = d1.inverse()
    tr = d1 + d1_inv
    out.append(NamedVerdict("d_1 + 1/d_1 integral", tr.is_integer, str(tr)))
    d2overd1 = ds.global_dim_sq * d1_inv
    out.append(NamedVerdict("D^2/d_1 integral", d2overd1.is_integer, str(d2overd1)))
    rest = [i for i in range(datum.rank) if i not in (0, one)]
    for i in rest:
        v = ds.dims[i] * ds.dims[i] * d1_inv
        if not v.is_integer:
            out.append(NamedVerdict("d_i^2/d_1 integral", False, f"i = {i}"))
            break
    else:
        out.append(NamedVerdict("d_i^2/d_1 integral", True))
    eps: dict[int, int] = {}
    ok, witness = True, ""
    for j in rest:
        v = datum.S[one][j] * ds.dims[j].inverse()
        if v == ONE:
            eps[j] = 1
        elif v == -ONE:
            eps[j] = -1
        else:
            ok, witness = False, f"S[{one}][{j}]/d_{j} = {v}"
            break
    out.append(NamedVerdict("eps_j = S_1j/d_j in {+-1}", ok, witness))
    if ok:
        out.append(
            NamedVerdict(
                "eps signs not all equal",
                len(set(eps.values())) > 1,
                f"eps = {eps}",
            )
        )
        zero_ok, zero_witness = True, ""
        for i in rest:
            for j in rest:
                if eps[i] == -eps[j] and datum.S[i][j]:
                    zero_ok, zero_witness = False, f"S[{i}][{j}] != 0"
                    break
            if not zero_ok:
                break
        out.append(NamedVerdict("S_ij = 0 when eps_i = -eps_j", zero_ok, zero_witness))
    return out


# ---------------------------------------------------------------------------
# orbit-field degrees (Lemma: [K_j : Q] = |<j>|)


def orbit_field_degree(datum: ModularDatum, j: int) -> int:
    """Degree over Q of K_j = Q(S_ij / S_0j : i)."""
    if not datum.S[0][j]:
        raise NotGaloisStable(f"characters undefined: S[0][{j}] = 0")
    inv = datum.S[0][j].inverse()
    gens = [datum.S[i][j] * inv for i in range(datum.rank)]
    cond = lcm(*(g.order for g in gens))
    fixing = sum(
        1
        for k in units_mod(cond)
        if all(g.galois(k) == g for g in gens)
    )
    return euler_phi(cond) // fixing
