"""Instance file parsing, canonical serialization, and the seeded generator."""

import json

import pytest

from netauction.errors import ParseError, ValidationError
from netauction.instance_io import (
    GeneratorConfig,
    instance_stream,
    parse_instance,
    random_instance,
    serialize_instance,
)
from netauction.market import DUMMY_BASE, compute_market, validate_profile

from conftest import DATA, DEEP_META, HUGE_K


def test_parse_fig3_file():
    profile = parse_instance((DATA / "fig3.json").read_text())
    assert profile.k == 3
    assert profile.mu == 2
    assert len(profile.reports) == 18
    assert sorted(profile.label_of(i) for i in profile.seller_neighbors) == ["a", "b", "c"]


def test_parse_empty_buyers_gives_empty_market():
    profile = parse_instance('{"k": 1, "seller_neighbors": [], "buyers": {}}')
    assert compute_market(profile).valid == frozenset()


def test_parse_meta_ignored():
    text = '{"k": 1, "seller_neighbors": ["a"], "buyers": {"a": {"values": [3], "neighbors": []}}, "meta": {"note": "x"}}'
    profile = parse_instance(text)
    assert profile.k == 1


def test_roundtrip_is_canonical():
    original = (DATA / "fig4.json").read_text()
    profile = parse_instance(original)
    canon = serialize_instance(profile)
    assert parse_instance(canon).reports == profile.reports
    assert serialize_instance(parse_instance(canon)) == canon


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ParseError):
        parse_instance('{"k": 1.5, "seller_neighbors": [], "buyers": {}}')
    with pytest.raises(ParseError):
        parse_instance('{"k": 1, "seller_neighbors": ["zz"], "buyers": {}}')
    with pytest.raises(ParseError):
        parse_instance('{"seller_neighbors": [], "buyers": {}}')
    with pytest.raises(ParseError):
        parse_instance('{"k": 1, "seller_neighbors": [], "buyers": {"a": {"values": [1.0], "neighbors": []}}}')
    with pytest.raises(ParseError):
        parse_instance('{"k": 1, "seller_neighbors": [], "buyers": {}, "extra": 1}')
    with pytest.raises(ParseError, match="buyer 'a': values must be an array"):
        parse_instance('{"k": 1, "seller_neighbors": [], "buyers": {"a": {"values": 5, "neighbors": []}}}')


# JSON that parses but has the wrong shape at the top, in buyers or in
# seller_neighbors
SHAPE_ERRORS = [
    ("[]", "top level must be an object"),
    ('{"k": 1, "seller_neighbors": [], "buyers": []}', "buyers must be an object"),
    ('{"k": 1, "seller_neighbors": "a", "buyers": {}}', "seller_neighbors must be an array"),
]


@pytest.mark.parametrize("text,message", SHAPE_ERRORS,
                         ids=["top-level", "buyers", "seller-neighbors"])
def test_parse_refuses_wrong_shapes(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    (HUGE_K, "integer literal has too many digits"),
    (DEEP_META, "arrays or objects nested too deeply"),
], ids=["huge-integer", "deep-nesting"])
def test_parse_refuses_huge_integers_and_deep_nesting(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


def test_parse_forwards_validation_errors():
    text = '{"k": 2, "seller_neighbors": ["a"], "buyers": {"a": {"values": [1, 2], "neighbors": []}}}'
    with pytest.raises(ValidationError):
        parse_instance(text)


def test_validation_errors_name_the_file_label():
    text = ('{"k": 2, "seller_neighbors": ["alice"], '
            '"buyers": {"alice": {"values": [1, 2], "neighbors": []}}}')
    with pytest.raises(ValidationError) as err:
        parse_instance(text)
    assert (err.value.buyer, err.value.reason) == ("alice", "non-increasing violated")
    assert str(err.value) == "buyer 'alice': non-increasing violated"


@pytest.mark.parametrize("field,message", [
    ('"k": "x", "buyers": {}', "k must be a positive integer, got 'x'"),
    ('"k": 1, "buyers": {"a": {"values": ["x"], "neighbors": []}}',
     "buyer 'a': marginal value 'x' is not a non-negative integer"),
    ('"k": 1, "mu": "x", "buyers": {}', "mu must be an integer when present"),
], ids=["k", "value", "mu"])
def test_types_and_ranges_are_validation_errors(field, message):
    # the parser checks only JSON shape and labels; validate_profile the rest
    with pytest.raises(ValidationError) as err:
        parse_instance('{"seller_neighbors": [], ' + field + "}")
    assert str(err.value) == message


def test_generator_determinism():
    cfg = GeneratorConfig(seed=9, buyers=(2, 8), k=(1, 3), v_max=10)
    a = [serialize_instance(p) for p in instance_stream(cfg, 10)]
    b = [serialize_instance(p) for p in instance_stream(cfg, 10)]
    assert a == b
    assert serialize_instance(random_instance(cfg, 7)) == a[7]


def test_generator_instances_validate_and_respect_bounds():
    cfg = GeneratorConfig(seed=4, buyers=(3, 6), k=(2, 2), v_max=5,
                          topology="graph", edge_density=0.3, max_depth=2)
    for profile in instance_stream(cfg, 200):
        validate_profile(profile)
        assert 3 <= len(profile.reports) <= 6
        assert profile.k == 2
        assert len(compute_market(profile).layers) <= 4  # extra graph edges only shorten chains
        for rep in profile.reports.values():
            assert all(0 <= v <= 5 for v in rep.values)


def test_tree_topology_depth_cap_is_exact():
    cfg = GeneratorConfig(seed=4, buyers=(7, 7), k=(1, 1), v_max=9, max_depth=3)
    for profile in instance_stream(cfg, 100):
        tree = compute_market(profile)
        assert len(tree.layers) <= 3


def test_zero_density_graph_is_a_tree():
    cfg = GeneratorConfig(seed=12, buyers=(5, 5), k=(1, 1), v_max=9,
                          topology="graph", edge_density=0.0)
    for profile in instance_stream(cfg, 20):
        market = compute_market(profile)
        # each valid non-seller-neighbor buyer has exactly one inviter
        inviter_count = {i: 0 for i in market.valid}
        for i in market.valid:
            for j in profile.reports[i].invited:
                inviter_count[j] += 1
        for i in market.valid:
            expected = 0 if i in profile.seller_neighbors else 1
            assert inviter_count[i] == expected


def test_bad_configs_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, buyers=(0, 3))
    with pytest.raises(ValueError, match="bad buyer range"):
        GeneratorConfig(seed=1, buyers=(1, DUMMY_BASE + 1))
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, k=(2, 1))
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, v_max=0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, topology="ring")
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, seller_bias=1.5)
    for density in (-3.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, topology="graph", edge_density=density)
    for depth in (0, -1):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, max_depth=depth)


def test_serialized_form_is_byte_stable():
    cfg = GeneratorConfig(seed=2, buyers=(4, 4), k=(2, 2), v_max=7)
    text = serialize_instance(random_instance(cfg, 0))
    doc = json.loads(text)
    assert list(doc) == ["k", "seller_neighbors", "buyers"]
    assert text.endswith("\n")
