"""The seven value types behave as frozen records: immutable, equal and hashed
by type and fields, keyword-constructible, matched by position in a `case`
pattern, and they copy and pickle."""

import copy
import pickle
import re

import pytest

from p4metrics import (
    ConfusionMatrix,
    MetricReport,
    MetricSeries,
    MetricValue,
    OptimalThreshold,
    ScoredSamples,
    SimulationSpec,
    evaluate_all,
)

# each type's name: one of its fields, and a function that builds a value of it by keywords
BUILDERS = {
    "ConfusionMatrix": ("tp", lambda: ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)),
    "ScoredSamples": ("positive_scores", lambda: ScoredSamples(positives=[0.9, 0.5, 0.9], negatives=[0.2])),
    "MetricValue": ("value", lambda: MetricValue(value=-0.5, range=(-1.0, 1.0))),
    "MetricReport": ("p4", lambda: MetricReport(**evaluate_all(ConfusionMatrix(1, 2, 3, 4)).as_dict())),
    "MetricSeries": ("keys", lambda: MetricSeries(
        key_column="tau", keys=(0.0, 0.5, 1.0),
        matrices=(ConfusionMatrix(2, 1, 0, 0), ConfusionMatrix(1, 0, 1, 1), ConfusionMatrix(0, 0, 2, 1)),
    )),
    "OptimalThreshold": ("tau", lambda: OptimalThreshold(tau=0.45, distance=0.33, metric_pair="mcc-f1")),
    "SimulationSpec": ("tnr", lambda: SimulationSpec(population=100, pos_fraction=0.25, tpr=0.9, tnr=0.8)),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_value_semantics(name):
    field, build = BUILDERS[name]
    value, same = build(), build()
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(same, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == same and value is not same
    assert hash(value) == hash(same)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    if name == "MetricSeries":
        runs = ((0, 1, value.runs[0][2]), (1, 2, value.runs[1][2]), (2, 3, value.runs[2][2]))
        assert value.runs == runs
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin.runs == runs


class MatricesSlotPickle:
    """Pickles as a `MetricSeries` of the layout whose slots were its fields, `matrices` in place of `runs`."""

    def __reduce__(self):
        value = BUILDERS["MetricSeries"][1]()
        return object.__new__, (MetricSeries,), (None, {name: getattr(value, name) for name in value._fields})


def test_a_pickle_without_a_slot_fails_to_load():
    with pytest.raises(KeyError, match="runs"):
        pickle.loads(pickle.dumps(MatricesSlotPickle()))


# the fields a class pattern binds by position, in order; `runs` is not one
MATCH_ARGS = {
    "ConfusionMatrix": ("tp", "fp", "fn", "tn"),
    "ScoredSamples": ("positive_scores", "positive_cumulative", "negative_scores", "negative_cumulative"),
    "MetricValue": ("value", "range"),
    "MetricReport": tuple(MetricReport(*[MetricValue(None)] * 12).as_dict()),
    "MetricSeries": ("key_column", "keys", "matrices"),
    "OptimalThreshold": ("tau", "distance", "metric_pair"),
    "SimulationSpec": ("population", "pos_fraction", "tpr", "tnr"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_a_class_pattern_matches_the_fields_by_position(name):
    value = BUILDERS[name][1]()
    cls = type(value)
    assert cls.__match_args__ == MATCH_ARGS[name]
    match value:
        case cls(first):
            assert first is getattr(value, MATCH_ARGS[name][0])
        case _:
            pytest.fail(f"{name} did not match its class pattern")
    match ConfusionMatrix(1, 2, 3, 4):
        case ConfusionMatrix(tp, fp, fn, tn=4):
            assert (tp, fp, fn) == (1, 2, 3)
        case _:
            pytest.fail("ConfusionMatrix(1, 2, 3, 4) did not match")


def test_a_matrix_is_not_its_tuple_and_reprs_its_fields():
    assert ConfusionMatrix(1, 2, 3, 4) != (1, 2, 3, 4)
    assert ConfusionMatrix(1, 2, 3, 4) != ConfusionMatrix(1, 2, 3, 5)
    assert MetricValue(0.5) != OptimalThreshold(0.5, (0.0, 1.0), "")
    assert repr(ConfusionMatrix(1, 2, 3, 4)) == "ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)"
    assert repr(MetricValue(None)) == "MetricValue(value=None, range=(0.0, 1.0))"
    assert repr(OptimalThreshold(0.5, 0.25, "mcc-p4")) == "OptimalThreshold(tau=0.5, distance=0.25, metric_pair='mcc-p4')"
    assert repr(ScoredSamples([0.5], [0.25, 0.25])) == (
        "ScoredSamples(positive_scores=(0.5,), positive_cumulative=(0, 1), "
        "negative_scores=(0.25,), negative_cumulative=(0, 2))"
    )
    assert repr(MetricSeries("tpr", (0.5,), (ConfusionMatrix(1, 0, 0, 0),))) == (
        "MetricSeries(key_column='tpr', keys=(0.5,), matrices=(ConfusionMatrix(tp=1, fp=0, fn=0, tn=0),))"
    )


# too few or too many fields, a field that is not one, and a field given twice
@pytest.mark.parametrize("name, build", [
    ("OptimalThreshold", lambda: OptimalThreshold(0.5, 0.1)),
    ("OptimalThreshold", lambda: OptimalThreshold(0.5, 0.1, "mcc-f1", 1)),
    ("OptimalThreshold", lambda: OptimalThreshold(tau=0.5, distance=0.1, pair="mcc-f1")),
    ("OptimalThreshold", lambda: OptimalThreshold(0.5, tau=0.5, distance=0.1)),
    ("MetricReport", lambda: MetricReport(*[MetricValue(None)] * 11)),
], ids=["too-few", "too-many", "unknown-keyword", "twice", "report-too-few"])
def test_a_record_built_from_wrong_fields_names_its_fields(name, build):
    message = f"{name}() takes the fields {', '.join(MATCH_ARGS[name])}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()
