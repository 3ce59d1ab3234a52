"""The package's value types, all built on modular_data.Record, against
frozen dataclasses with the same fields and options.

For every Record subclass a dataclass twin is made here, and sample
instances from catalog data must give the same ==, hash, repr and replace
results, the same refusals of bad arguments and of assignment, and equal
copies through pickle and deepcopy.  A hypothesis test runs the datum JSON
round trip, and with it == and hash as lru_cache keys, on generated data."""

import copy
import dataclasses
import inspect
import pickle
from functools import lru_cache
from itertools import product

import pytest

from moddata.catalog import pointed_zn, su2_4_family, su2_4_parameter_tuples, su2_odd_mod2
from moddata.classifier import integral_dimension_search, rank5_suite, vanishing_sum_check
from moddata.cyclotomic import ONE, zeta
from moddata.field_theory import GroupShape, is_modularly_admissible
from moddata.galois import classify_dimensions, compute_profile
from moddata.modular_data import (
    ModularDatum,
    Record,
    SchemaViolation,
    cauchy_prime_support,
    check_admissible,
    derived_scalars,
    replace,
    verlinde_fusion,
)
from moddata.sl2z_reps import (
    ModularRep,
    NotModularRepresentation,
    all_lifts,
    inadmissible_psi,
    normalize,
    obstruction_120,
    signed_perm_match,
    spectra_lookup,
)


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


RECORDS = sorted(record_classes(), key=lambda c: c.__name__)


@lru_cache(maxsize=None)
def samples():
    """At least two instances of every record type, from catalog data."""
    out = {}

    def add(*records):
        for r in records:
            out.setdefault(type(r), []).append(r)

    for datum in (su2_odd_mod2(5), pointed_zn(5)):
        report = check_admissible(datum)
        profile = compute_profile(datum)
        rep = normalize(datum)
        # copies: the cached derived_scalars(datum) holds the (ST)^3 verdict once
        # check has read it, and the cached normalize(datum) holds s once any
        # caller has read it
        add(datum, replace(derived_scalars(datum)), verlinde_fusion(datum), report, *report.conditions)
        add(profile, classify_dimensions(datum, profile), cauchy_prime_support(datum))
        add(replace(rep), *all_lifts(datum)[:2], obstruction_120(rep))
        add(is_modularly_admissible(rep.level, [v for row in datum.S for v in row]))
    lift2, lift6 = normalize(su2_odd_mod2(5, 2)), normalize(su2_odd_mod2(5, 6))
    add(signed_perm_match(lift2, lift2), signed_perm_match(lift2, lift6))
    suite = rank5_suite([("su2_9_mod2", su2_odd_mod2(5)), ("pointed_z5", pointed_zn(5))])
    add(suite, rank5_suite([("su2_4_family_0", su2_4_family(*su2_4_parameter_tuples()[0]))]))
    add(*suite.entries, *(c for e in suite.entries for c in e.checks))
    add(GroupShape.parse("p=3,r=1"), GroupShape.parse("p=5,r=1,r=2"), GroupShape.elementary2(2))
    add(*spectra_lookup(2, 2, "even"), *spectra_lookup(3, 3, "even"))
    add(inadmissible_psi(5), inadmissible_psi(7))
    add(vanishing_sum_check(2, 1, -2, -1, ONE, zeta(4)), vanishing_sum_check(1, 1, 1, 1, ONE, zeta(4)))
    add(integral_dimension_search(3, (1, 2), {2, 3}), integral_dimension_search(7, (1, 5, 1), {2, 3, 11}))
    return out


def twin_class(cls):
    """A frozen dataclass with cls's fields, defaults, options and methods."""
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls.__annotations__)
    namespace = {
        k: v
        for k, v in vars(cls).items()
        if k not in ("__init__", "__eq__", "__hash__", "__dict__", "__weakref__")
        and k not in cls.__annotations__
    }
    namespace["__annotations__"] = dict.fromkeys(cls.__annotations__, "object")
    for p in params:
        spec = cls.__record_fields__[p.name]
        default = {} if p.default is p.empty else {"default": p.default}
        namespace[p.name] = dataclasses.field(compare=spec.compare, **default)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def values(record):
    return {n: getattr(record, n) for n in type(record).__annotations__}


def outcome(make):
    """The value made, or the type of the exception raised."""
    try:
        return make()
    except Exception as exc:
        return type(exc)


def hash_outcome(value):
    return outcome(lambda: hash(value))


def test_every_record_type_has_samples():
    assert set(samples()) == set(RECORDS)
    assert all(len(samples()[cls]) >= 2 for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstDataclass:
    def test_eq_hash_and_repr(self, cls):
        twin = twin_class(cls)
        pairs = [(r, twin(**values(r))) for r in samples()[cls]]
        # a variant in each field the comparison skips must not matter
        for r, t in list(pairs):
            for name in cls.__annotations__:
                if not cls.__record_fields__[name].compare:
                    pairs.append((replace(r, **{name: None}), dataclasses.replace(t, **{name: None})))
        for r, t in pairs:
            assert repr(r) == repr(t)
            assert hash_outcome(r) == hash_outcome(t)
            assert vars(r) == vars(t)
        for (a, ta), (b, tb) in product(pairs, repeat=2):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
        record = pairs[0][0]
        assert record != twin(**values(record)) and (record == object()) is False

    def test_replace(self, cls):
        twin = twin_class(cls)
        rows = samples()[cls]
        for a, b in product(rows, repeat=2):
            ta = twin(**values(a))
            for name, value in values(b).items():
                got = outcome(lambda: replace(a, **{name: value}))
                want = outcome(lambda: dataclasses.replace(ta, **{name: value}))
                if isinstance(want, type):
                    assert got is want, (name, got)
                else:
                    assert type(got) is cls and vars(got) == vars(want)
                    assert (got == a) is (want == ta)
        assert outcome(lambda: replace(rows[0], no_such_field=1)) is TypeError

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = samples()[cls][0]
        for name in [*cls.__annotations__, "no_such_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_bad_arguments(self, cls):
        twin = twin_class(cls)
        args = list(values(samples()[cls][0]).values())
        first = next(iter(cls.__annotations__))
        calls = {
            "too many": lambda c: c(*args, None),
            "missing": lambda c: c(),
            "unknown": lambda c: c(*args, no_such_field=1),
            "repeated": lambda c: c(*args, **{first: args[0]}),
        }
        for what, call in calls.items():
            assert outcome(lambda: call(twin)) is TypeError, what
            assert outcome(lambda: call(cls)) is TypeError, what

    def test_pickle_and_deepcopy(self, cls):
        for record in samples()[cls]:
            for duplicate in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert type(duplicate) is cls and duplicate is not record
                assert duplicate == record and repr(duplicate) == repr(record)
                assert hash_outcome(duplicate) == hash_outcome(record)


def _rep():
    return normalize(su2_odd_mod2(5))


REFUSALS = {
    "datum-rank-0": (lambda: ModularDatum(0, 1, (), ()), SchemaViolation),
    "datum-theta0": (lambda: replace(su2_odd_mod2(5), t_exponents=(1, 2, 6, 1, 9)), SchemaViolation),
    "datum-S-shape": (lambda: replace(pointed_zn(3), S=pointed_zn(5).S), SchemaViolation),
    "rep-level": (
        lambda: replace(_rep(), level=2 * _rep().level, t_exponents=tuple(2 * e for e in _rep().t_exponents)),
        NotModularRepresentation,
    ),
    "rep-level-0": (lambda: replace(_rep(), level=0), NotModularRepresentation),
    "shape-not-prime": (lambda: GroupShape(9, (1,)), ValueError),
    "shape-descending": (lambda: GroupShape(3, (2, 1)), ValueError),
    "shape-empty": (lambda: GroupShape(3, ()), ValueError),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_post_init_refusals(case):
    make, error = REFUSALS[case]
    with pytest.raises(error):
        make()


def test_datum_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    family = st.one_of(
        st.builds(su2_odd_mod2, st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 3])),
        st.builds(pointed_zn, st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 2])),
        st.builds(lambda i: su2_4_family(*su2_4_parameter_tuples()[i]), st.integers(0, 15)),
    )

    @st.composite
    def relabeled(draw):
        d = draw(family)
        rest = draw(st.permutations(range(1, d.rank)))
        perm = (0, *rest)  # label i becomes perm[i]; the unit stays 0
        inv = sorted(range(d.rank), key=perm.__getitem__)
        S = tuple(tuple(d.S[inv[i]][inv[j]] for j in range(d.rank)) for i in range(d.rank))
        exps = tuple(d.t_exponents[inv[i]] for i in range(d.rank))
        return ModularDatum(d.rank, d.torder, exps, S)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(relabeled())
    def check(d):
        again = ModularDatum.from_json(d.to_json())
        assert again == d and again is not d
        assert hash(again) == hash(d)
        assert derived_scalars(again) is derived_scalars(d)

    check()
