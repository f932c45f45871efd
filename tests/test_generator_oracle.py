"""The seeded generator against its oracle, and its bytes pinned.

`random_instance` draws a graph's extra edges per run of ids between a
buyer's tree children; `reference_io.random_instance` walks every pair and
skips the joined ones. Both must give equal profiles and identical bytes.
The sha256 pins hold the bytes of two streams as recorded before the run
walk existed, so a change that moved the fast path and the oracle together
still fails here.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.cli import _parse_gen_spec
from netauction.instance_io import GeneratorConfig, instance_stream, random_instance, serialize_instance

import reference_io as ref

N_RANGES = ((1, 1), (2, 2), (1, 8), (20, 40))
DEPTHS = (None, 1, 2, 3)
BIASES = (0.0, 0.45, 1.0)
# perfbench's auction-deep graph at its default seed
AUCTION_DEEP = "seed=880894,n=3200,k=8,depth=6,topology=graph,density=0.000625"


def assert_same(config: GeneratorConfig, count: int) -> None:
    for index in range(count):
        fast = random_instance(config, index)
        slow = ref.random_instance(config, index)
        assert fast == slow, (config, index)
        assert serialize_instance(fast) == serialize_instance(slow), (config, index)


def test_tree_stream_matches_the_reference():
    for buyers, depth, bias in itertools.product(N_RANGES, DEPTHS, BIASES):
        assert_same(GeneratorConfig(seed=31, buyers=buyers, max_depth=depth,
                                    seller_bias=bias), 4)


@pytest.mark.parametrize("density", [0, 0.05, 0.15, 0.5, 1.0, 1],
                         ids=["0", "0.05", "0.15", "0.5", "1.0", "int-1"])
def test_graph_stream_matches_the_reference(density):
    for buyers, depth, bias in itertools.product(N_RANGES, DEPTHS, BIASES):
        assert_same(GeneratorConfig(seed=32, buyers=buyers, k=(1, 4), topology="graph",
                                    edge_density=density, max_depth=depth,
                                    seller_bias=bias), 4)


def test_large_graph_matches_the_reference():
    assert_same(GeneratorConfig(seed=33, buyers=(1200, 1200), k=(2, 2), topology="graph",
                                edge_density=0.01, max_depth=6), 1)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32),
    buyers=st.tuples(st.integers(1, 60), st.integers(0, 20)).map(lambda t: (t[0], min(60, t[0] + t[1]))),
    k=st.tuples(st.integers(1, 4), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
    v_max=st.integers(1, 30),
    topology=st.sampled_from(("tree", "graph")),
    edge_density=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0, 1))),
    max_depth=st.one_of(st.none(), st.integers(1, 6)),
    seller_bias=st.floats(0.0, 1.0),
    index=st.integers(0, 50),
)
def test_generator_config_property(seed, buyers, k, v_max, topology, edge_density,
                                   max_depth, seller_bias, index):
    config = GeneratorConfig(seed=seed, buyers=buyers, k=k, v_max=v_max, topology=topology,
                             edge_density=edge_density, max_depth=max_depth,
                             seller_bias=seller_bias)
    fast = random_instance(config, index)
    assert fast == ref.random_instance(config, index)


def test_auction_deep_instance_bytes_are_pinned():
    config = _parse_gen_spec(AUCTION_DEEP)
    text = serialize_instance(random_instance(config, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bad4142a3c2f65ff0c8667a165ce72992c4abf88b47659abf0bf7dd113f27aba")


def test_criterion_3_graph_stream_bytes_are_pinned():
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                             topology="graph", edge_density=0.15)
    digest = hashlib.sha256()
    for profile in instance_stream(config, 50):
        digest.update(serialize_instance(profile).encode())
    assert digest.hexdigest() == "fa5d6aba920e7c8366caf9e96944beb1e2fe21552052fd80fc36fbe1cc945ffb"
