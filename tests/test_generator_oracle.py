"""The seeded generator against its oracle, and its bytes pinned.

`random_instance` reads a graph's edge draws as blocks of 32-bit words and
decodes only the pairs whose first word can fall under the cut;
`reference_io.random_instance` calls `random()` for every pair that no tree
edge joins. Both must give equal profiles and identical bytes, at densities
where the cut sits on a word or byte boundary too, and for any block size.
The sha256 pins hold the bytes of two streams as recorded before either
fast path existed, so a change that moved the fast path and the oracle
together still fails here. `random_instance` runs no validator, so the
reference validates every profile it draws and the pinned streams call
`validate_profile` on theirs.
"""

import dataclasses
import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.cli import _parse_gen_spec
from netauction import instance_io
from netauction.instance_io import GeneratorConfig, instance_stream, random_instance, serialize_instance
from netauction.market import validate_profile

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
    profile = random_instance(config, 0)
    validate_profile(profile)
    text = serialize_instance(profile)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bad4142a3c2f65ff0c8667a165ce72992c4abf88b47659abf0bf7dd113f27aba")


def test_criterion_3_graph_stream_bytes_are_pinned():
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                             topology="graph", edge_density=0.15)
    digest = hashlib.sha256()
    for profile in instance_stream(config, 50):
        validate_profile(profile)
        digest.update(serialize_instance(profile).encode())
    assert digest.hexdigest() == "fa5d6aba920e7c8366caf9e96944beb1e2fe21552052fd80fc36fbe1cc945ffb"


# random() is x / 2**53, x = (w0 >> 5) * 2**26 + (w1 >> 6): the cut moves
# from one first word to the next at multiples of 2**-27, and from one top
# byte to the next at multiples of 2**-8 (j = t * 2**19)
WORD_STEPS = (1, 2, 3, 2**19 - 1, 2**19, 2**19 + 1, 5 * 2**19, 2**26, 2**27 - 2**19, 2**27 - 1)
BOUNDARY_DENSITIES = sorted({
    d
    for j in WORD_STEPS
    for d in (math.ldexp(j, -27), math.nextafter(math.ldexp(j, -27), 0.0),
              math.nextafter(math.ldexp(j, -27), 1.0))
} | {5e-324, 0.999999, 1.0}) + [1]


@pytest.mark.parametrize("density", BOUNDARY_DENSITIES, ids=repr)
def test_boundary_densities_match_the_reference(density):
    for buyers, depth in itertools.product(N_RANGES + ((150, 150),), (None, 2)):
        assert_same(GeneratorConfig(seed=34, buyers=buyers, k=(1, 8), topology="graph",
                                    edge_density=density, max_depth=depth), 2)


def test_buyers_without_draws_match_the_reference():
    # buyer u < n - 1 draws nothing when every larger id is her tree child;
    # a tree config with the same seed draws the same tree
    config = GeneratorConfig(seed=35, buyers=(2, 4), topology="graph", edge_density=0.5)
    tree = dataclasses.replace(config, topology="tree")
    silent = 0
    for index in range(300):
        assert random_instance(config, index) == ref.random_instance(config, index), index
        reports = random_instance(tree, index).reports
        n = len(reports)
        silent += any(reports[u].invited >= set(range(u + 1, n)) for u in range(n - 1))
    assert silent >= 20


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
def test_edges_do_not_depend_on_the_block_size(block, monkeypatch):
    configs = [GeneratorConfig(seed=36, buyers=(200, 200), k=(1, 3), topology="graph",
                               edge_density=density, max_depth=depth)
               for density in (0.005, 0.3, 1.0) for depth in (None, 3)]
    expected = [ref.random_instance(config, 0) for config in configs]
    if block is not None:
        monkeypatch.setattr(instance_io, "_EDGE_BLOCK", block)
    assert [random_instance(config, 0) for config in configs] == expected


class _Words(random.Random):
    """`random()` and `getrandbits()` in Python over the stream `word()`
    gives, laid out as CPython's C code lays out the Mersenne Twister's
    32-bit words."""

    def word(self) -> int:
        return super().getrandbits(32)

    def random(self) -> float:
        a, b = self.word() >> 5, self.word() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        x = shift = 0
        while k > 0:
            w = self.word()
            x |= (w >> (32 - k) if k < 32 else w) << shift
            shift, k = shift + 32, k - 32
        return x


def test_the_word_model_is_cpythons():
    for seed in ("0:0", "880894:0", "x"):
        real, model = random.Random(seed), _Words(seed)
        for bits in (1, 5, 31, 32, 33, 64, 100, 64 * 7, 1):
            assert model.getrandbits(bits) == real.getrandbits(bits)
            assert model.random() == real.random()
            assert model.randint(0, 10) == real.randint(0, 10)


def near_cut(density: float) -> type:
    """A `_Words` whose stream puts many pairs' x at cut - 1, cut and cut + 1.

    Most words stay the generator's. One in four starts a word pair that
    encodes such an x as a `random()` reads it; as the pairs a draw reads
    fall on either parity, about half of them land. `seen` counts the x of
    every `random()` drawn within one of the cut.
    """
    cut = math.ceil(density * 2**53)

    class NearCut(_Words):
        seen = Counter()
        # named here too, or `Random.__init_subclass__` would derive
        # randint and choice from this class's random()
        getrandbits = _Words.getrandbits

        def __init__(self, seed):
            self.pending = []
            super().__init__(seed)

        def word(self) -> int:
            if self.pending:
                return self.pending.pop()
            w = super().word()
            if w & 3:
                return w
            x = min(max(cut + (w >> 2) % 3 - 1, 0), 2**53 - 1)
            self.pending.append((x & (2**26 - 1)) << 6 | w >> 26)
            return (x >> 26) << 5 | w >> 27

        def random(self) -> float:
            value = super().random()
            if abs(value * 2**53 - cut) <= 1:
                NearCut.seen[int(value * 2**53) - cut] += 1
            return value

    return NearCut


@pytest.mark.parametrize("density", [math.ldexp(1, -27), math.nextafter(0.25, 0.0), 0.25,
                                     math.nextafter(0.25, 1.0), 0.000625, 0.15, 0.999999,
                                     5e-324],
                         ids=repr)
def test_draws_at_the_cut_match_the_reference(density, monkeypatch):
    words = near_cut(density)
    monkeypatch.setattr(random, "Random", words)
    for buyers in ((2, 2), (40, 40), (120, 120)):
        assert_same(GeneratorConfig(seed=37, buyers=buyers, k=(1, 3), topology="graph",
                                    edge_density=density), 3)
    # the reference drew at cut - 1 and at cut: one joins, one does not
    assert words.seen[-1] and words.seen[0]
