"""The bulk `parse_instance` and `validate_profile` against the item-by-item
oracle in `reference_io.py`: on every document both must give equal
profiles, or raise the same exception type with the same text, so the first
error in canonical order is the same. Documents are the shipped fixtures,
the benchmark's instance shapes, and mutations of them, one per error class
and, drawn by hypothesis, two faults in one file."""

import enum
import gc
import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.cli import _parse_gen_spec
from netauction import instance_io
from netauction.errors import NetAuctionError, ParseError, ValidationError
from netauction.instance_io import parse_instance, random_instance, serialize_instance
from netauction.market import DUMMY_BASE, ReportedType, validate_profile

import reference_io as ref
from conftest import DATA, DEEP_META, HUGE_K, make_profile

FIXTURES = ("fig3.json", "fig4.json", "t4.json", "dna_mu_counterexample.json")
# The auction benchmark workloads' instance shapes.
WIDE = "seed=11,n=800,k=8,depth=6,bias=0.3"
DEEP = "seed=13,n=3200,k=8,depth=6,topology=graph,density=0.000625"


def result(fn, arg):
    """fn(arg), or the type and text of the library error it raises."""
    try:
        return fn(arg)
    except NetAuctionError as exc:
        return type(exc), str(exc)


def assert_same_parse(text):
    fast = result(parse_instance, text)
    assert fast == result(ref.parse_instance, text)
    return fast


class Pairs(list):
    """A JSON object written as explicit key/value pairs, so a key may repeat."""


def render(obj) -> str:
    if isinstance(obj, dict):
        obj = Pairs(obj.items())
    if isinstance(obj, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in obj) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(render, obj)) + "]"
    return json.dumps(obj)


# Each mutation edits a decoded document in place (or returns a replacement)
# and makes it faulty; `pick` chooses among a non-empty sequence, so the same
# mutation serves hypothesis and plain tests.

def _buyer(doc, pick):
    return doc["buyers"][pick(sorted(doc["buyers"]))]


def _label_list(doc, pick):
    entry = _buyer(doc, pick)
    return pick([doc["seller_neighbors"], entry.setdefault("neighbors", [])])


def _insert(seq, item, pick):
    seq.insert(pick(range(len(seq) + 1)), item)


def _set_value(doc, pick, value):
    values = _buyer(doc, pick)["values"]
    values[pick(range(len(values)))] = value


def _increasing(doc, pick):
    values = _buyer(doc, pick)["values"]
    values[-1] = values[0] + 1
    if len(values) == 1:
        values.insert(0, 0)


def _wrong_length(doc, pick):
    values = _buyer(doc, pick)["values"]
    if pick([True, False]):
        values.append(0)
    else:
        values.pop()


def _self_invite(doc, pick):
    label = pick(sorted(doc["buyers"]))
    _insert(doc["buyers"][label].setdefault("neighbors", []), label, pick)


def _top_level_keys(doc, pick):
    """Drop a required key, or add an unknown one."""
    if pick([True, False]):
        del doc[pick(["k", "seller_neighbors", "buyers"])]
    else:
        doc["extra"] = 1


def _duplicate_key(doc, pick):
    """Repeat one key of the top level, of `buyers` or of a buyer entry."""
    owner, key = None, None
    where = pick(["top", "buyers", "entry"])
    if where != "top" and isinstance(doc.get("buyers"), dict) and doc["buyers"]:
        owner, key = (doc, "buyers")
        if where == "entry":
            label = pick(sorted(doc["buyers"]))
            if isinstance(doc["buyers"][label], dict) and doc["buyers"][label]:
                owner, key = doc["buyers"], label
    pairs = Pairs((doc if owner is None else owner[key]).items())
    pairs.insert(pick(range(len(pairs) + 1)), pick(pairs))
    if owner is None:
        return pairs
    owner[key] = pairs
    return doc


MUTATIONS = {
    "duplicate-key": _duplicate_key,
    "non-string-label": lambda doc, pick: _insert(
        _label_list(doc, pick), pick([5, None, True, ["a"], {"x": 1}]), pick),
    "unknown-label": lambda doc, pick: _insert(_label_list(doc, pick), "zz-unknown", pick),
    "unknown-seller-neighbour": lambda doc, pick: _insert(
        doc["seller_neighbors"], "zz-unknown", pick),
    "bad-k": lambda doc, pick: doc.__setitem__("k", pick([0, -1, "3", True, None, 2.5, [1]])),
    "bad-mu": lambda doc, pick: doc.__setitem__("mu", pick(["1", False, 1.5, [2]])),
    "bool-value": lambda doc, pick: _set_value(doc, pick, pick([True, False])),
    "negative-value": lambda doc, pick: _set_value(doc, pick, -1),
    "non-integer-value": lambda doc, pick: _set_value(doc, pick, pick(["7", None, 0.5])),
    "increasing-vector": _increasing,
    "wrong-length": _wrong_length,
    "self-invite": _self_invite,
    "unknown-invitee": lambda doc, pick: _insert(
        _buyer(doc, pick).setdefault("neighbors", []), "zz-unknown", pick),
    "entry-shape": lambda doc, pick: doc["buyers"].__setitem__(
        pick(sorted(doc["buyers"])),
        pick([[], 3, {"values": [1], "extra": 1}, {"neighbors": []}])),
    "values-not-array": lambda doc, pick: _buyer(doc, pick).__setitem__(
        "values", pick([5, "x", None, {}])),
    "neighbors-not-array": lambda doc, pick: _buyer(doc, pick).__setitem__(
        "neighbors", pick(["a", 1, None, {}])),
    "top-level-keys": _top_level_keys,
}
# Mutations apply in this order whatever order they are drawn in, so one that
# edits a value never meets a list or an entry an earlier one replaced.
ORDER = ["bad-k", "bad-mu", "non-string-label", "unknown-label", "unknown-seller-neighbour",
         "unknown-invitee", "self-invite", "increasing-vector", "bool-value", "negative-value",
         "non-integer-value", "wrong-length", "values-not-array", "neighbors-not-array",
         "entry-shape", "top-level-keys", "duplicate-key"]
assert sorted(ORDER) == sorted(MUTATIONS)


def mutate(text, names, pick) -> str:
    doc = json.loads(text)
    for name in sorted(names, key=ORDER.index):
        doc = MUTATIONS[name](doc, pick) or doc
    return render(doc)


@pytest.fixture(scope="module")
def generated_texts():
    return {spec: serialize_instance(random_instance(_parse_gen_spec(spec), 0))
            for spec in (WIDE, DEEP)}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_parse_as_the_oracle_does(name):
    profile = assert_same_parse((DATA / name).read_text())
    assert not isinstance(profile, tuple)


def test_benchmark_shapes_parse_as_the_oracle_does(generated_texts):
    for text in generated_texts.values():
        profile = assert_same_parse(text)
        assert not isinstance(profile, tuple)
        # one fault in the last buyer: the bulk check fails, the walk names it
        doc = json.loads(text)
        last = doc["buyers"][max(doc["buyers"])]
        last["values"][-1] = last["values"][0] + 1
        assert assert_same_parse(json.dumps(doc)) == (
            ValidationError, f"buyer {max(doc['buyers'])!r}: non-increasing violated")
        last["neighbors"].append("zz-unknown")
        assert assert_same_parse(json.dumps(doc))[0] is ParseError


# Documents that the column parse must hand to the walk: each breaks the
# colon certificate or the decode, or has a fault the columns must catch.

def _colon_labels(doc):
    """Every label with a colon in it; still a valid file."""
    new = {label: label + ":" + label for label in doc["buyers"]}
    doc["seller_neighbors"] = [new[x] for x in doc["seller_neighbors"]]
    doc["buyers"] = {new[label]: {**entry, "neighbors": [new[x] for x in entry["neighbors"]]}
                     for label, entry in doc["buyers"].items()}
    return render(doc)


def _with_meta(meta):
    def edit(doc):
        doc["meta"] = meta
        return render(doc)
    return edit


def _in_list(key, item):
    """`item` appended to the first buyer's `key` list."""
    def edit(doc):
        doc["buyers"][min(doc["buyers"])][key].append(item)
        return render(doc)
    return edit


def _float_and_duplicate(float_first):
    """A float literal in one buyer's values and a repeated key in another
    buyer's entry: whichever comes first in the text is the error."""
    def edit(doc):
        first, last = min(doc["buyers"]), max(doc["buyers"])
        floated, repeated = (first, last) if float_first else (last, first)
        doc["buyers"][floated]["values"][-1] = 0.5
        entry = doc["buyers"][repeated]
        doc["buyers"][repeated] = Pairs([*entry.items(), ("values", entry["values"])])
        return render(doc)
    return edit


def _huge_value(doc):
    doc["buyers"][min(doc["buyers"])]["values"][-1] = "HUGE"
    return render(doc).replace('"HUGE"', "9" * 5000)


def _repeated_label(doc):
    label = min(doc["buyers"])
    doc["buyers"] = Pairs([*doc["buyers"].items(), (label, doc["buyers"][label])])
    return render(doc)


WALK_CASES = {
    "colon-labels": _colon_labels,
    "meta-nested": _with_meta({"source": {"seed": 1, "tags": ["a", {"b": 2}]}, "note": "a:b"}),
    "meta-duplicate": _with_meta(Pairs([("a", 1), ("b", {"c": [1]}), ("a", 2)])),
    "meta-nested-duplicate": _with_meta({"x": [Pairs([("c", 1), ("c", 2)])]}),
    "values-nested-duplicate": _in_list("values", Pairs([("a", 1), ("a", 2)])),
    "neighbors-nested-duplicate": _in_list("neighbors", Pairs([("a", 1), ("a", 2)])),
    "neighbors-empty-object": _in_list("neighbors", {}),
    "float-after-duplicate": _float_and_duplicate(float_first=False),
    "float-before-duplicate": _float_and_duplicate(float_first=True),
    "over-long-integer": _huge_value,
    "repeated-label": _repeated_label,
}
VALID_CASES = ("colon-labels", "meta-nested")


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_cases_match_the_oracle(name):
    fig3 = json.loads((DATA / "fig3.json").read_text())
    got = assert_same_parse(WALK_CASES[name](fig3))
    assert isinstance(got, tuple) == (name not in VALID_CASES), got


def test_huge_integer_and_deep_nesting_match_the_oracle():
    assert assert_same_parse(HUGE_K) == (ParseError, "integer literal has too many digits")
    assert assert_same_parse(DEEP_META) == (ParseError, "arrays or objects nested too deeply")


@pytest.fixture
def walk_calls(monkeypatch):
    """The names of `_no_duplicate_keys` and `_parse_walk`, once per call."""
    calls = []
    for name in ("_no_duplicate_keys", "_parse_walk"):
        def counted(*args, _name=name, _original=getattr(instance_io, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(instance_io, name, counted)
    return calls


def test_benchmark_shapes_take_no_walk(generated_texts, walk_calls):
    for text in generated_texts.values():
        assert parse_instance(text) == ref.parse_instance(text)
    assert walk_calls == []
    # the counters see a walk when one runs
    parse_instance(_colon_labels(json.loads((DATA / "fig3.json").read_text())))
    assert walk_calls[0] == "_parse_walk" and "_no_duplicate_keys" in walk_calls


def _peak(parse, text) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_column_parse_peaks_no_higher_than_the_walk(generated_texts):
    text = generated_texts[DEEP]
    assert _peak(parse_instance, text) <= _peak(instance_io._parse_walk, text)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("fixture", ["fig3.json", "t4.json"])
def test_each_error_class_matches_the_oracle(name, fixture):
    text = (DATA / fixture).read_text()
    for choice in range(7):
        # the choice-th option of every pick (wrapping): no option list is
        # longer than 7, so each option of each mutation runs at least once
        mutated = mutate(text, [name], lambda seq: list(seq)[choice % len(seq)])
        assert isinstance(assert_same_parse(mutated), tuple), mutated


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data(),
       fixture=st.sampled_from(FIXTURES),
       names=st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=2, unique=True))
def test_mutated_documents_match_the_oracle(data, fixture, names):
    text = (DATA / fixture).read_text()
    mutated = mutate(text, names, lambda seq: data.draw(st.sampled_from(list(seq))))
    assert_same_parse(mutated)


class Small(enum.IntEnum):
    ONE = 1


def _with(profile, i, values=None, invited=None):
    rep = profile.reports[i]
    reports = dict(profile.reports)
    reports[i] = ReportedType(rep.values if values is None else values,
                              rep.invited if invited is None else frozenset(invited))
    return replace(profile, reports=reports)


def _profile_cases():
    base = make_profile(2, {0, 1}, {0: ((5, 3), {2}), 1: ((4, 4), ()), 2: ((2, 1), {3}),
                                    3: ((9, 0), ())})
    rep = base.reports[3]
    yield "valid", base
    yield "int-subclass-values", _with(base, 1, values=(Small.ONE, Small.ONE))
    yield "list-values", _with(base, 2, values=[2, 1])
    yield "bool-k", replace(base, k=True)
    yield "bool-mu", replace(base, mu=False)
    yield "unknown-seller-neighbour", replace(base, seller_neighbors=frozenset({0, 7}))
    yield "negative-id", replace(base, reports={**base.reports, -4: rep})
    yield "bool-id", replace(base, reports={True if i == 1 else i: r
                                            for i, r in base.reports.items()})
    yield "dummy-id", replace(base, reports={**base.reports, DUMMY_BASE: rep})
    yield "self-invite", _with(base, 2, invited={2, 3})
    yield "unknown-invitee", _with(base, 0, invited={2, 99})
    yield "bool-value", _with(base, 3, values=(True, 0))
    yield "negative-value", _with(base, 3, values=(1, -1))
    yield "increasing", _with(base, 0, values=(3, 5))
    yield "two-faults", _with(_with(base, 3, values=(1, 2)), 1, invited={1})


@pytest.mark.parametrize("name,profile", list(_profile_cases()),
                         ids=[name for name, _ in _profile_cases()])
def test_validate_profile_matches_the_oracle(name, profile):
    fast = result(validate_profile, profile)
    assert fast == result(ref.validate_profile, profile)
    assert isinstance(fast, tuple) == (name not in ("valid", "int-subclass-values",
                                                    "list-values"))
