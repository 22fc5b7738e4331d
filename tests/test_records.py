"""The report records against dataclass twins, and the integer check on counts.

Every report type (SylvesterSpec, ChartId, Stratum and the rest) is a
disckit.errors.Record.  Each is held here to a frozen @dataclass twin of
the same name, the form these types had before, which is the reference:
the same repr, equality, hash, refusal to assign or delete, validations,
vars() and command-line payload.  Counts (degrees, levels, indices,
budgets) must be ints, not floats or bools.
"""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import pytest

from disckit import (
    GF,
    ZZ,
    DisckitError,
    ParameterError,
    PolynomialRing,
    UniPoly,
    chart_consistency,
    complex_table,
    dim_sym,
    dimension_growth_check,
    discriminant_ideal,
    h_ext_jet,
    has_root_of_multiplicity,
    homogeneous_classical_discriminant,
    main1_strata,
    rank_jet,
    rank_table,
    verify_discriminant_locus,
)
from disckit import cli, dims, jets, oracle, resultants, strata
from disckit.errors import Record

# ----- the twins: the records as they were written with dataclasses ---------


@dataclass(frozen=True)
class DimReport:
    N: int
    d: int
    k: int
    j: int
    i: int
    value: int
    object: str


@dataclass(frozen=True)
class ComplexTerm:
    twist: int
    module_dim: int


@dataclass(frozen=True)
class ChartId:
    dehom_section: int
    affine_chart: int

    def __post_init__(self):
        if self.affine_chart not in (0, 1):
            raise ParameterError(f"affine chart must be 0 or 1, got {self.affine_chart}")
        if self.dehom_section < 0:
            raise ParameterError("the pinned coefficient index must be nonnegative")


@dataclass(frozen=True)
class IdealGens:
    ring: object
    gens: tuple


@dataclass(frozen=True)
class ChartRelation:
    j: int
    category: str
    factor: str | None
    direction: str | None
    relabel_holds: bool


@dataclass(frozen=True)
class VerifyReport:
    d: int
    l: int
    q: int
    chart: ChartId
    ideal_zero_count: int
    mult_root_count: int
    mismatches: tuple
    soundness_mismatches: tuple
    completeness_mismatches: tuple


@dataclass(frozen=True)
class GrowthReport:
    d: int
    l: int
    q1: int
    q2: int
    count_q1: int
    count_q2: int
    ratio: Fraction | None
    expected: Fraction
    tolerance: int
    within_tolerance: bool


@dataclass(frozen=True)
class SylvesterSpec:
    m: int
    n: int

    def __post_init__(self):
        if type(self.m) is not int or type(self.n) is not int:
            raise ParameterError(f"declared degrees must be integers, got {self}")
        if self.m < 0 or self.n < 0:
            raise ParameterError(f"declared degrees must be nonnegative, got {self}")


@dataclass(frozen=True)
class Stratum:
    inverted: tuple
    quotiented: tuple
    residual_poly: str
    residual_degree: int
    discriminant: str | None
    verdict: str


RECORDS = {
    cls.__name__: cls
    for cls in (dims.DimReport, dims.ComplexTerm, jets.ChartId, jets.IdealGens,
                jets.ChartRelation, oracle.VerifyReport, oracle.GrowthReport,
                resultants.SylvesterSpec, strata.Stratum)
}
TWINS = {name: globals()[name] for name in RECORDS}


def _twin(value):
    """value with every record in it replaced by its twin, field by field."""
    if isinstance(value, Record):
        return TWINS[type(value).__name__](*[_twin(getattr(value, name)) for name in value._fields])
    if isinstance(value, (tuple, list)):
        return type(value)(_twin(x) for x in value)
    return value


def _payload_reference(value):
    """cli._payload as it read dataclasses."""
    if dataclasses.is_dataclass(value):
        return {f.name: _payload_reference(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_payload_reference(x) for x in value]
    return str(value) if isinstance(value, Fraction) else value


def _samples():
    """At least one record of every type, most of them computed by disckit."""
    base = PolynomialRing(ZZ, ("u",))
    P = UniPoly(base, "t", [base.zero, base.one, base.variable("u")])  # u*t^2 + t
    found = [
        dims.DimReport(1, 4, 1, 1, 0, 10, "ext_jet"),
        dims.complex_term_rank(1, 5, 1, 2),
        jets.ChartId(2, 1),
        discriminant_ideal(3, 2),
        jets.incidence_ideal(2, 1, jets.ChartId(0, 1)),
        resultants.SylvesterSpec(3, 4),
        oracle.GrowthReport(3, 1, 5, 7, 0, 4, None, Fraction(49, 25), 3, False),
    ]
    found += complex_table(1, 4, 1)
    found += chart_consistency(3, 2, 1)
    found += main1_strata(P)
    found.append(verify_discriminant_locus(3, 1, 5))
    found.append(dimension_growth_check(3, 2, 5, 7))
    return found


SAMPLES = _samples()


def test_every_record_type_is_sampled_and_its_twin_has_its_fields():
    assert sorted({type(r).__name__ for r in SAMPLES}) == sorted(RECORDS)
    for name, cls in RECORDS.items():
        assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[name]))


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_behaves_as_its_dataclass_twin(record):
    twin = _twin(record)
    cls = type(record)
    assert type(twin).__name__ == cls.__name__
    assert repr(record) == repr(twin)
    assert str(record) == str(twin)
    values = [getattr(record, name) for name in record._fields]
    again = cls(*values)
    by_name = cls(**dict(zip(record._fields, values)))
    assert record == again == by_name and not record != again
    assert (record == twin) is (twin == record) is False
    assert record.__eq__(object()) is NotImplemented
    assert hash(record) == hash(twin) == hash(again)
    assert list(vars(record)) == list(record._fields)
    assert {name: _twin(value) for name, value in vars(record).items()} == vars(twin)
    assert repr(cli._payload(record)) == repr(_payload_reference(twin))  # keys in order too


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_refuses_assignment_and_deletion_as_its_twin_does(record):
    twin = _twin(record)
    before = repr(record)
    for name in (record._fields[0], "extra"):
        for act in (lambda r: setattr(r, name, 1), lambda r: delattr(r, name)):
            with pytest.raises(AttributeError) as caught:
                act(record)
            with pytest.raises(AttributeError) as reference:
                act(twin)
            assert str(caught.value) == str(reference.value)
    assert repr(record) == before
    assert list(vars(record)) == list(record._fields)


SAMPLE_OF = {type(r).__name__: r for r in SAMPLES}
WRONG_FIELDS = {
    "missing": lambda cls, fields, values: cls(values[0]),
    "missing by name": lambda cls, fields, values: cls(**{fields[-1]: values[-1]}),
    "extra positional": lambda cls, fields, values: cls(*values, values[0]),
    "unknown keyword": lambda cls, fields, values: cls(*values, extra=1),
    "given twice": lambda cls, fields, values: cls(*values, **{fields[0]: values[0]}),
}


@pytest.mark.parametrize("call", WRONG_FIELDS.values(), ids=WRONG_FIELDS.keys())
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_wrong_set_of_fields_is_refused_as_by_the_twin(name, call):
    record = SAMPLE_OF[name]
    values = [getattr(record, field) for field in record._fields]
    with pytest.raises(TypeError):
        call(TWINS[name], record._fields, values)
    with pytest.raises(TypeError):
        call(RECORDS[name], record._fields, values)


def test_unequal_fields_make_unequal_records():
    assert jets.ChartId(2, 0) != jets.ChartId(2, 1)
    assert resultants.SylvesterSpec(3, 4) != resultants.SylvesterSpec(4, 3)
    assert jets.ChartId(1, 0) != resultants.SylvesterSpec(1, 0)  # another class, same fields
    assert len({jets.ChartId(2, 0), jets.ChartId(2, 0), jets.ChartId(2, 1)}) == 2


@pytest.mark.parametrize("name, args", [
    ("ChartId", (0, 2)), ("ChartId", (0, -1)), ("ChartId", (-1, 0)), ("ChartId", (-1, 5)),
    ("SylvesterSpec", (-1, 0)), ("SylvesterSpec", (0, -2)), ("SylvesterSpec", (1.5, 1)),
    ("SylvesterSpec", (True, 1)), ("SylvesterSpec", (1, "2")), ("SylvesterSpec", (2.0, 1)),
])
def test_the_validations_match_the_twins(name, args):
    with pytest.raises(ParameterError) as reference:
        TWINS[name](*args)
    with pytest.raises(ParameterError) as caught:
        RECORDS[name](*args)
    assert str(caught.value) == str(reference.value)
    assert caught.value.exit_code == 3


# ----- count arguments -------------------------------------------------------

COUNT_CALLS = {
    "ChartId(1.0, 0)": lambda: jets.ChartId(1.0, 0),
    "ChartId(True, 0)": lambda: jets.ChartId(True, 0),
    "ChartId(0, True)": lambda: jets.ChartId(0, True),
    "discriminant_ideal(2, 1, ChartId(1.0, 0))":
        lambda: discriminant_ideal(2, 1, jets.ChartId(1.0, 0)),
    "discriminant_ideal(True, True)": lambda: discriminant_ideal(True, True),
    "discriminant_ideal(2, 1.0)": lambda: discriminant_ideal(2, 1.0),
    "discriminant_ideal(2.0, 1)": lambda: discriminant_ideal(2.0, 1),
    "discriminant_ideal(2.0, 1, ChartId(0, 0))":
        lambda: discriminant_ideal(2.0, 1, jets.ChartId(0, 0)),
    "chart_consistency(3, False, 1)": lambda: chart_consistency(3, False, 1),
    "homogeneous_classical_discriminant(2.0)": lambda: homogeneous_classical_discriminant(2.0),
    "taylor_map(2, 1.0, ChartId(2, 0))": lambda: jets.taylor_map(2, 1.0, jets.ChartId(2, 0)),
    "dim_sym(2.5, 2)": lambda: dim_sym(2.5, 2),
    "dim_sym(2, True)": lambda: dim_sym(2, True),
    "rank_jet(1.0, 1)": lambda: rank_jet(1.0, 1),
    "rank_table(3, True)": lambda: rank_table(3, True),
    "h_ext_jet(1, 4, 1, 1, 0.0)": lambda: h_ext_jet(1, 4, 1, 1, 0.0),
    "complex_table(1.0, 2, 1)": lambda: complex_table(1.0, 2, 1),
    "complex_term_rank(1, 5, 1, 2.0)": lambda: dims.complex_term_rank(1, 5, 1, 2.0),
    "verify_discriminant_locus(2.0, 1, 3)": lambda: verify_discriminant_locus(2.0, 1, 3),
    "verify_discriminant_locus(2, True, 3)": lambda: verify_discriminant_locus(2, True, 3),
    "verify_discriminant_locus(2, 1, 3, budget=1000.0)":
        lambda: verify_discriminant_locus(2, 1, 3, budget=1000.0),
    "has_root_of_multiplicity(t^2, True)":
        lambda: has_root_of_multiplicity(UniPoly(GF(7), "t", [0, 0, 1]), True),
    "has_root_of_multiplicity(t^2, 2.0)":
        lambda: has_root_of_multiplicity(UniPoly(GF(7), "t", [0, 0, 1]), 2.0),
    "dimension_growth_check(3, 2, 5, 7, tolerance=2.0)":
        lambda: dimension_growth_check(3, 2, 5, 7, tolerance=2.0),
    "UniPoly.monomial(ZZ, t, True)": lambda: UniPoly.monomial(ZZ, "t", True),
}


@pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
def test_a_count_argument_must_be_an_int(call):
    with pytest.raises(ParameterError, match="must be (an integer|0 or 1), got") as caught:
        call()
    assert caught.value.exit_code == 3
    assert isinstance(caught.value, DisckitError)
