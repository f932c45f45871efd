"""`serialize_instance` against the indent encoder it replaces.

`serialize_instance` joins the text itself over json's C string and
integer encoders; `reference_io.serialize_instance` builds the document
and calls `json.dumps(doc, indent=2)`. Both must give identical text on
generated streams, on every parseable file in tests/data, on an empty
profile and on labels that need escaping.
"""

import dataclasses
import itertools

import pytest

from netauction.errors import ParseError, ValidationError
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance, serialize_instance
from netauction.market import ReportProfile, ReportedType

import reference_io as ref
from conftest import DATA


def assert_same(profile: ReportProfile) -> str:
    text = serialize_instance(profile)
    assert text == ref.serialize_instance(profile)
    return text


@pytest.mark.parametrize("topology", ["tree", "graph"])
def test_generated_streams_match_the_encoder(topology):
    for k, buyers, mu in itertools.product((1, 3, 8), ((1, 1), (2, 8), (30, 60)), (None, 0, 4)):
        config = GeneratorConfig(seed=41, buyers=buyers, k=(k, k), v_max=1000,
                                 topology=topology, edge_density=0.2)
        for profile in instance_stream(config, 5):
            assert_same(dataclasses.replace(profile, mu=mu))


def test_every_parseable_data_file_matches_the_encoder():
    parsed = 0
    for path in sorted(DATA.glob("*.json")):
        try:
            profile = parse_instance(path.read_text())
        except (ParseError, ValidationError):
            continue
        assert_same(profile)
        parsed += 1
    assert parsed >= 5


def test_empty_profile_matches_the_encoder():
    for mu in (None, 3):
        profile = ReportProfile(k=1, seller_neighbors=frozenset(), reports={}, mu=mu)
        assert_same(profile)
    assert assert_same(ReportProfile(k=2, seller_neighbors=frozenset(), reports={})) == (
        '{\n  "k": 2,\n  "seller_neighbors": [],\n  "buyers": {}\n}\n')


HOSTILE = ['"', "\\", "\x00\x1f\x7f\n\t", "é", "ü ", "\U0001f600", "</x>", "", "\ud800"]


def test_hostile_labels_match_the_encoder():
    n = len(HOSTILE)
    reports = {i: ReportedType((n - i, 0), frozenset({(i + 1) % n, (i + 3) % n}))
               for i in range(n)}
    profile = ReportProfile(k=2, seller_neighbors=frozenset({0, 4, 7}), reports=reports,
                            labels=dict(enumerate(HOSTILE)))
    text = assert_same(profile)
    assert text.isascii()
    assert assert_same(parse_instance(text)) == text


def test_unlabelled_and_shared_labels_match_the_encoder():
    reports = {i: ReportedType((5, 2), frozenset({(i + 1) % 12})) for i in range(12)}
    # ids without a label print as their number, which sorts as a string
    assert_same(ReportProfile(k=2, seller_neighbors=frozenset({0, 10}), reports=reports))
    # two buyers under one label: the document keeps one entry, as a dict does
    shared = ReportProfile(k=2, seller_neighbors=frozenset({0}), reports=reports,
                           labels={i: f"x{i % 5}" for i in range(12)})
    assert assert_same(shared).count('"values"') == 5
