"""Galois action on modular data: the profile of the character permutations
h_sigma with its orbits, sign functions eps_sigma, and the structural
exclusion predicates."""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .cyclotomic import Cyclotomic, real_sign, units_mod
from .modular_data import (
    FusionRules,
    ModularDatum,
    NotGaloisStable,
    Perm,
    Record,
    Verdict,
    _characters,
    _exact_perms,
    _s_facts,
    derived_scalars,
)

if TYPE_CHECKING:  # pragma: no cover
    from .sl2z_reps import ModularRep


class NotGaloisSymmetric(ValueError):
    """No sign vector satisfies sigma(s_ij) = eps(i) s_{h(i) j}."""


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


class GaloisProfile(Record):
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


def compute_profile(
    datum: ModularDatum, rep: Optional["ModularRep"] = None
) -> GaloisProfile:
    """h_sigma for every unit mod conductor(F_S), with orbits.

    h_sigma is the one map per S of _SFacts.h_sigma; the NotGaloisStable it
    holds for an S that is not Galois stable is raised again here, as it
    first was.  Signs are filled in when a normalized pair is supplied (they
    depend on it): each unit is extended to a unit modulo the rep's scalar
    field.  The pair must be a lift of the datum, whose character columns
    are those of S.
    """
    h_sigma = _s_facts(datum.S).h_sigma
    if isinstance(h_sigma, NotGaloisStable):
        raise h_sigma.with_traceback(None)
    cond, perms = h_sigma
    units = tuple(units_mod(cond))
    edges = (edge for perm in perms.values() for edge in enumerate(perm))
    orbits = _components(datum.rank, edges)
    signs: dict[int, tuple[int, ...]] = {}
    if rep is not None:
        modulus = _rep_field_modulus(rep)
        for k in units:
            k_ext = _extend_unit(k, cond, modulus)
            signs[k] = sign_function(rep, k_ext)
    return GaloisProfile(cond, units, perms, orbits, signs)


def _components(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph on 0..n-1, each sorted, in order of
    their least element."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(map(tuple, groups.values()))


def _rep_field_modulus(rep: "ModularRep") -> int:
    return lcm(*(v.order for row in rep.s for v in row), rep.level)


def _extend_unit(k: int, cond: int, modulus: int) -> int:
    """The least positive unit mod M = lcm(modulus, cond) that is k mod cond,
    for k a unit mod cond: cond | M, so (Z/M)^x maps onto (Z/cond)^x and
    some k mod cond + j cond <= M is a unit mod M."""
    modulus = lcm(modulus, cond)
    return next(c for c in range(k % cond, modulus + 1, cond) if c and gcd(c, modulus) == 1)


def sign_function(rep: "ModularRep", k: int) -> tuple[int, ...]:
    """eps_sigma with sigma(s_ij) = eps(i) s_{h(i) j} = eps(j) s_{i h(j)}.

    h_sigma_k is read at k mod c from the map (c, {k: h_sigma_k}) of
    _SFacts.h_sigma, looked up once per call; at a held NotGaloisStable or a
    k that is no unit mod c it is matched exactly on the columns of s.
    h certifies sigma(s_ij / s_0j) = s_{i h(j)} / s_{0 h(j)} (s = lam S has
    the columns of S), so the column form holds with eps(j) = sigma(s_0j) /
    s_{0 h(j)}, read from the r images of row 0: s_0b = lam S_0b is never 0
    where h exists, as both the read and the match refuse a zero S_0a.  The
    row form then holds exactly when eps(j) s_{i h(j)} = eps(i) s_{h(i) j}.
    A k sharing a prime p with the order of an entry raises in the exact
    match when p | c, and else at the image of s_00, whose order p divides.
    """
    s, h_sigma = rep.s, _s_facts(rep.S).h_sigma
    r, perm = len(s), None
    if not isinstance(h_sigma, NotGaloisStable):
        c, by_unit = h_sigma
        perm = by_unit.get(k % c if c > 1 else 1)  # units_mod(1) is [1]
    if perm is None:
        perm = _exact_perms(_characters(s), (k,))[k]
    eps = []
    for j in range(r):
        image, target = s[0][j].galois(k), s[0][perm[j]]
        if image == target:
            eps.append(1)
        elif image == -target:
            eps.append(-1)
        else:
            raise NotGaloisSymmetric(f"sigma_{k}(s[{j}]) is not +-row {perm[j]}")
    for i in range(r):
        for j in range(r):
            row = s[perm[i]][j]
            if s[i][perm[j]] != (row if eps[i] == eps[j] else -row):
                raise NotGaloisSymmetric(
                    f"sign vector inconsistent at ({i},{j}) for sigma_{k}"
                )
    return tuple(eps)


def galois_twist_symmetry(rep: "ModularRep") -> Verdict:
    """Theorem-level identity sigma^2(t_i) = t_{h_sigma(i)} over Gal(Q_n/Q).

    With t_i = zeta_n^(e_i) at the level n, the image sigma_k^2(t_i) is
    zeta_n^(e_i k^2), compared with t_h(i) by its exponent.  The conductor
    c of F_S, that of the character values for a symmetric S, must divide
    n, as in every genuine representation (S = s / s_00 lies in Q_n);
    ValueError names it otherwise.  h_sigma_k is read at k mod c from the
    map (c, {k: h_sigma_k}) of _SFacts.h_sigma, looked up once per call, so
    no character value, no Galois image and no s is formed.  An S that is
    not Galois stable raises its held NotGaloisStable, before the conductor
    check at a vanishing first-row entry, as the exact match did.
    """
    n, exps = rep.level, rep.t_exponents
    facts = _s_facts(rep.S)
    c, h_sigma = facts.conductor, facts.h_sigma
    if n % c and all(rep.S[0]):
        raise ValueError(f"the conductor {c} of F_S does not divide the level {n}")
    if isinstance(h_sigma, NotGaloisStable):
        raise h_sigma.with_traceback(None)
    by_unit = h_sigma[1]
    for k in units_mod(n):
        perm = by_unit[k % c if c > 1 else 1]  # units_mod(1) is [1]
        k_squared = k * k % n
        for i, e in enumerate(exps):
            if e * k_squared % n != exps[perm[i]]:
                return Verdict(False, (k, i), "sigma^2(t_i) != t_{h(i)}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# dimension classification


class DimensionClass(Record):
    label: str  # integral | weakly-integral | pseudo-unitary-candidate | generic
    fp_column: Optional[int]
    fp_unit: Optional[int]
    dims_constant_on_orbits: Optional[bool]


def classify_dimensions(datum: ModularDatum, profile: GaloisProfile) -> DimensionClass:
    """Integrality class of the dimensions, with the pseudo-unitarizing unit."""
    ds = derived_scalars(datum)
    orbit0 = profile.orbit_of(0)
    fp_column = _fp_column(datum)
    fp_unit = next((k for k, p in profile.perms.items() if p[0] == fp_column), None)
    constant = None
    if ds.global_dim_sq.is_integer and all(
        _positive(d) for d in ds.dims
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
    """Column whose character values S_ia / S_0a are all positive reals
    (Frobenius-Perron), each tested as S_ia conj(S_0a), a positive real
    exactly when S_ia / S_0a is: no S_0a is 0 where a profile exists."""
    S = datum.S
    for a in range(datum.rank):
        d = S[0][a].conjugate()
        if all(_positive(row[a] * d) for row in S):
            return a
    return None


def _positive(x: Cyclotomic) -> bool:
    """x is real and > 0 at the principal embedding, decided exactly."""
    return x.is_real and real_sign(x) > 0


# ---------------------------------------------------------------------------
# exclusion predicates


def exclusion_predicates(
    datum: ModularDatum, profile: GaloisProfile
) -> list[Verdict]:
    """Checkable instances of the forbidden-permutation and transposition lemmas."""
    out: list[Verdict] = []
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


def _no_c61_pattern(r: int, profile: GaloisProfile) -> Verdict:
    # forbidden: a 2-cycle through 0 together with an (r-2)-cycle
    for perm in profile.image():
        cycles = cycle_type(perm)
        if sorted(len(c) for c in cycles) == [2, r - 2]:
            two = next(c for c in cycles if len(c) == 2)
            if 0 in two:
                return Verdict(False, f"found {perm}", "no (0 a)(r-2 cycle) element")
    return Verdict(True, "", "no (0 a)(r-2 cycle) element")


def _no_c62_pattern(datum: ModularDatum, profile: GaloisProfile) -> Verdict:
    """Forbidden: 0 inside an (r-2)-cycle next to a transposition of
    self-dual labels, i = i* in the fusion rules of S; that is conj(S_ij) =
    S_{i j*}, as S^2 = D^2 C and unitarity give.  Without them, every label
    may be self-dual."""
    r = datum.rank
    fusion = _s_facts(datum.S).fusion
    dual = fusion.dual if isinstance(fusion, FusionRules) else None
    name = "no (r-2 cycle through 0)(a b) element"
    for perm in profile.image():
        cycles = cycle_type(perm)
        if sorted(len(c) for c in cycles) == [2, r - 2]:
            big = next(c for c in cycles if len(c) == r - 2)
            two = next(c for c in cycles if len(c) == 2)
            if 0 in big and (
                dual is None or all(dual[x] == x for x in two)
            ):
                return Verdict(False, f"found {perm}", name)
    return Verdict(True, "", name)


def _transposition_lemma(datum: ModularDatum, swap: Sequence[int]) -> list[Verdict]:
    """Clauses of the Gal = <(0 1)> lemma: integrality of traces/norms and the
    sign pattern eps_j = S_{1j}/d_j with its zero consequences."""
    one = swap[0] if swap[1] == 0 else swap[1]
    ds = derived_scalars(datum)
    dims, row = ds.dims, datum.S[one]
    d1 = dims[one]
    positive = Verdict(_positive(d1), f"d_{one} = {d1}", "d_1 > 0")
    d1_inv = d1.inverse()
    tr = d1 + d1_inv
    d2overd1 = ds.global_dim_sq * d1_inv
    rest = [i for i in range(datum.rank) if i not in (0, one)]
    square = next((f"i = {i}" for i in rest if not (dims[i] * dims[i] * d1_inv).is_integer), "")
    # eps_j is 0 where S_1j/d_j is not +-1
    eps = {j: 1 if row[j] == dims[j] else -1 if row[j] == -dims[j] else 0 for j in rest}
    bad = next((j for j in rest if not eps[j]), None)
    sign = "" if bad is None else f"S[{one}][{bad}]/d_{bad} = {row[bad] * dims[bad].inverse()}"
    out = [
        positive,
        Verdict(tr.is_integer, str(tr), "d_1 + 1/d_1 integral"),
        Verdict(d2overd1.is_integer, str(d2overd1), "D^2/d_1 integral"),
        Verdict(not square, square, "d_i^2/d_1 integral"),
        Verdict(not sign, sign, "eps_j = S_1j/d_j in {+-1}"),
    ]
    if sign:
        return out
    mixed = ((i, j) for i in rest for j in rest if eps[i] == -eps[j] and datum.S[i][j])
    zero = next((f"S[{i}][{j}] != 0" for i, j in mixed), "")
    return out + [
        Verdict(len(set(eps.values())) > 1, f"eps = {eps}", "eps signs not all equal"),
        Verdict(not zero, zero, "S_ij = 0 when eps_i = -eps_j"),
    ]
