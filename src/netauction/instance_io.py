"""Instance file format, canonical serialization, and seeded generators.

The on-disk format is JSON with integer money only:

    {
      "k": 3,
      "mu": 2,                        // optional
      "seller_neighbors": ["a", "b"],
      "buyers": {
        "a": {"values": [4, 3, 1], "neighbors": ["c"]},
        ...
      },
      "meta": {...}                   // optional, ignored by semantics
    }

Labels map to buyer ids in sorted-label order; serialization is canonical
(sorted labels, fixed layout), so equal profiles produce identical bytes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .errors import ParseError, ValidationError
from .market import DUMMY_BASE, BuyerId, ReportProfile, ReportedType, validate_profile


def _reject_float(value: str):
    raise ParseError(f"float literal {value!r} not allowed; money is integral")


def _no_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


_ENTRY_KEYS = frozenset({"values", "neighbors"})


def _resolve(ids: dict[str, BuyerId], labels: list, owner: str | None) -> frozenset[BuyerId]:
    """The ids of `labels`, which neighbour `owner` (None for the seller);
    raises ParseError naming the first label that is not a known buyer's."""
    context = "seller_neighbors" if owner is None else f"buyer {owner!r} neighbors"
    for label in labels:
        if not isinstance(label, str):
            raise ParseError(f"{context}: label {label!r} must be a string")
        if label not in ids:
            raise ParseError(f"{context}: unknown buyer label {label!r}")
    return frozenset(map(ids.__getitem__, labels))


def parse_instance(text: str) -> ReportProfile:
    """Parse and validate instance text into a ReportProfile.

    Buyer labels become ids by sorted-label order; the original labels are
    kept on the profile for display and round-tripping. Malformed JSON, a
    duplicate key, a float literal, an integer literal too long to convert,
    nesting too deep to decode, a bad shape and a bad label raise
    ParseError; a type or range fault (k, mu, each value, a self-invite)
    raises `validate_profile`'s ValidationError, which names the buyer by
    her label in the file. Either names the first fault in canonical order.

    The file is checked once, a column at a time (`_parse_columns`), each
    check one call over every buyer; only when one fails is the file parsed
    again by `_parse_walk`, which finds and raises the error.
    """
    profile = _parse_columns(text)
    return _parse_walk(text) if profile is None else profile


_TOP_KEYS = frozenset({"k", "mu", "seller_neighbors", "buyers", "meta"})
_REQUIRED_KEYS = frozenset({"k", "seller_neighbors", "buyers"})
_DICT_ONLY = frozenset({dict})
_LIST_ONLY = frozenset({list})
_INT_ONLY = frozenset({int})


def _parse_columns(text: str) -> ReportProfile | None:
    """The profile `_parse_walk` returns for `text`, or None if any check
    fails; each check runs over a whole column of buyers at once.

    The decode has no pairs hook: the colons of the text certify that no
    key repeats (argument in `notes/decisions.md`). The invariants of
    `validate_profile` are checked on the decoded lists.
    """
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except (ValueError, RecursionError, ParseError):
        return None
    if type(doc) is not dict or not _TOP_KEYS >= doc.keys() >= _REQUIRED_KEYS:
        return None
    k, mu, buyers = doc["k"], doc.get("mu"), doc["buyers"]
    if (type(k) is not int or k < 1 or not (mu is None or type(mu) is int)
            or type(buyers) is not dict or len(buyers) > DUMMY_BASE
            or type(doc["seller_neighbors"]) is not list):
        return None
    labels = sorted(buyers)
    entries = list(map(buyers.__getitem__, labels))
    # every `:` is one pair of these objects: no key repeats, no other
    # object has a pair and no string holds a colon
    if (not _DICT_ONLY.issuperset(map(type, entries))
            or text.count(":") != len(doc) + len(buyers) + sum(map(len, entries))
            or not all(map(_ENTRY_KEYS.issuperset, entries))):
        return None
    try:
        values = list(map(operator.itemgetter("values"), entries))
    except KeyError:
        return None
    invited = list(map(dict.get, entries, itertools.repeat("neighbors"),
                       itertools.repeat([])))
    del entries
    if (not _LIST_ONLY.issuperset(map(type, values))
            or not _LIST_ONLY.issuperset(map(type, invited))
            or not all(map(k.__eq__, map(len, values)))):
        return None
    flat = list(itertools.chain.from_iterable(values))
    # every vector has length k, so column c of the vectors is flat[c::k]
    if (not _INT_ONLY.issuperset(map(type, flat)) or min(flat, default=0) < 0
            or not all(all(map(operator.ge, flat[c::k], flat[c + 1::k]))
                       for c in range(k - 1 if flat else 0))):
        return None
    del flat
    # one int object per id, shared by every map and set that holds it
    numbers = list(range(len(labels)))
    ids = dict(zip(labels, numbers))
    try:
        seller = frozenset(map(ids.__getitem__, doc["seller_neighbors"]))
        invited = list(map(frozenset, map(map, itertools.repeat(ids.__getitem__), invited)))
    except (KeyError, TypeError):
        return None
    del ids
    if any(map(operator.contains, invited, numbers)):
        return None
    return ReportProfile(
        k=k,
        seller_neighbors=seller,
        reports=dict(zip(numbers, map(ReportedType, map(tuple, values), invited))),
        mu=mu,
        labels=dict(zip(numbers, labels)),
    )


def _parse_walk(text: str) -> ReportProfile:
    """`parse_instance` item by item: the decode with `_no_duplicate_keys`,
    one shape check and one `_resolve` per buyer, then `validate_profile`.
    Every error `parse_instance` raises is raised here."""
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:
        # int() refuses literals longer than sys.get_int_max_str_digits()
        raise ParseError("integer literal has too many digits") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("k", "seller_neighbors", "buyers"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    for key in doc:
        if key not in ("k", "mu", "seller_neighbors", "buyers", "meta"):
            raise ParseError(f"unknown key {key!r}")
    buyers = doc["buyers"]
    if not isinstance(buyers, dict):
        raise ParseError("buyers must be an object")
    ids = {label: i for i, label in enumerate(sorted(buyers))}

    neighbors = doc["seller_neighbors"]
    if not isinstance(neighbors, list):
        raise ParseError("seller_neighbors must be an array")
    seller = _resolve(ids, neighbors, None)

    reports: dict[BuyerId, ReportedType] = {}
    for label, i in ids.items():
        entry = buyers[label]
        if not isinstance(entry, dict) or not entry.keys() <= _ENTRY_KEYS:
            raise ParseError(f"buyer {label!r}: expected values/neighbors object")
        values = entry.get("values")
        if not isinstance(values, list):
            raise ParseError(f"buyer {label!r}: values must be an array of integers")
        invited = entry.get("neighbors", [])
        if not isinstance(invited, list):
            raise ParseError(f"buyer {label!r}: neighbors must be an array")
        reports[i] = ReportedType(tuple(values), _resolve(ids, invited, label))
    profile = ReportProfile(
        k=doc["k"],
        seller_neighbors=seller,
        reports=reports,
        mu=doc.get("mu"),
        labels={i: label for label, i in ids.items()},
    )
    try:
        return validate_profile(profile)
    except ValidationError as exc:
        if exc.buyer is None:
            raise
        raise ValidationError(profile.label_of(exc.buyer), exc.reason) from None


def _array(items: list[str], indent: str) -> str:
    """`items`, each already encoded, as a JSON array whose closing bracket
    sits at `indent` and whose items sit two spaces further in."""
    if not items:
        return "[]"
    return "[\n  " + indent + (",\n  " + indent).join(items) + "\n" + indent + "]"


def serialize_instance(profile: ReportProfile) -> str:
    """Canonical instance text: sorted labels, fixed layout, trailing newline.

    The text is `json.dumps(doc, indent=2) + "\\n"` of the document
    {k, mu when set, seller_neighbors, buyers}, built by joins over the two
    C functions that encoder calls for integers and strings.
    """
    label = profile.label_of
    string = encode_basestring_ascii
    number = int.__repr__
    # as in a dict keyed by label: a label two buyers share keeps its
    # first place and its last buyer's report
    buyers = {label(i): profile.reports[i] for i in sorted(profile.reports, key=label)}
    entries = ",\n    ".join(
        string(name) + ': {\n      "values": '
        + _array(list(map(number, report.values)), "      ")
        + ',\n      "neighbors": '
        + _array(list(map(string, sorted(map(label, report.invited)))), "      ")
        + "\n    }"
        for name, report in buyers.items()
    )
    head = '{\n  "k": ' + number(profile.k)
    if profile.mu is not None:
        head += ',\n  "mu": ' + number(profile.mu)
    body = "{\n    " + entries + "\n  }" if buyers else "{}"
    return (head + ',\n  "seller_neighbors": '
            + _array(list(map(string, sorted(map(label, profile.seller_neighbors)))), "  ")
            + ',\n  "buyers": ' + body + "\n}\n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded random-instance recipe.

    `buyers` and `k` are inclusive ranges; `topology` is "tree" or "graph"
    (tree plus extra mutual edges, each sampled with `edge_density`);
    `max_depth` caps the layer a tree parent can sit in.
    """

    seed: int
    buyers: tuple[int, int] = (2, 8)
    k: tuple[int, int] = (1, 3)
    v_max: int = 10
    topology: str = "tree"
    edge_density: float = 0.1
    max_depth: int | None = None
    seller_bias: float = 0.0

    def __post_init__(self):
        # ids run 0..n-1, below DUMMY_BASE, where reserve-price dummies start
        if not 1 <= self.buyers[0] <= self.buyers[1] <= DUMMY_BASE:
            raise ValueError(f"bad buyer range {self.buyers}")
        if self.k[0] > self.k[1] or self.k[0] < 1:
            raise ValueError(f"bad k range {self.k}")
        if self.v_max < 1:
            raise ValueError("v_max must be >= 1")
        if self.topology not in ("tree", "graph"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not 0.0 <= self.seller_bias <= 1.0:
            raise ValueError("seller_bias must be in [0, 1]")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge_density must be in [0, 1]")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


# pairs per block of edge draws: 16 Ki pairs of two 32-bit words, 128 KiB
_EDGE_BLOCK = 1 << 14


def _below(getrandbits, bound: int) -> int:
    """`random.Random._randbelow(bound)`, which `randint` and `choice` call:
    one `getrandbits(bound.bit_length())`, drawn again while at or above
    `bound`."""
    bits = bound.bit_length()
    r = getrandbits(bits)
    while r >= bound:
        r = getrandbits(bits)
    return r


@functools.cache
def _candidate_table(limit: int) -> bytes:
    """A `bytes.translate` table that maps the bytes below `limit` to 0 and
    the rest to 1."""
    return bytes(t >= limit for t in range(256))


def _draw_edges(rng: random.Random, invited: dict[BuyerId, set[BuyerId]],
                density: float) -> None:
    """Join each pair u < v that no tree edge joins when its `random()` is
    below `density`, with the draws in (u, v) order (notes/decisions.md).

    The draws are read as 32-bit words, a block of pairs at a time, and
    only the pairs whose first word can put `random()` under the cut are
    decoded.
    """
    # At u's turn the only pairs (u, v > u) already joined are u's tree
    # children, so u draws once per larger id that is not her child.
    n = len(invited)
    children = [sorted(invited[u]) for u in range(n)]
    starts = list(itertools.accumulate(
        (n - 1 - u - len(children[u]) for u in range(n)), initial=0))
    total = starts.pop()
    # random() is x / 2**53 with x = (w0 >> 5) * 2**26 + (w1 >> 6), so it is
    # below density when x is below cut; x's top byte is w0's top byte
    cut = math.ceil(density * 2**53)
    table = _candidate_table(((cut - 1) >> 45) + 1)
    for first in range(0, total, _EDGE_BLOCK):
        size = min(_EDGE_BLOCK, total - first)
        # the next 2 * size words, the first word in the lowest bytes
        block = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
        marks = block[3::8].translate(table)
        p = marks.find(0)
        while p >= 0:
            words = int.from_bytes(block[8 * p:8 * p + 8], "little")
            if ((words & 0xFFFFFFFF) >> 5 << 26 | words >> 38) < cut:
                pair = first + p
                u = bisect.bisect_right(starts, pair) - 1
                v = u + 1 + pair - starts[u]
                for child in children[u]:
                    if child > v:
                        break
                    v += 1
                invited[u].add(v)
                invited[v].add(u)
            p = marks.find(0, p + 1)


def random_instance(config: GeneratorConfig, index: int = 0) -> ReportProfile:
    """Deterministic instance `index` of the stream seeded by `config.seed`.

    Trees grow by random parent attachment (seller or any earlier buyer whose
    layer allows a child within `max_depth`); `seller_bias` is the extra
    probability of attaching straight to the seller, fattening layer 1.
    Valuations are K uniform draws over [0, v_max] sorted descending. Graphs
    add each extra buyer-buyer edge with probability `edge_density`, reported
    mutually. Every profile is valid by construction, its ids below
    `DUMMY_BASE` by the config's buyer range, so no validator runs on it;
    the generator oracle in the tests validates the stream.

    The stream is a contract: every instance of a (config, index) pair is
    fixed, and so is every 32-bit word of the Mersenne Twister seeded with
    the string "seed:index" that it reads. An integer below a bound takes
    one `getrandbits` of the bound's bit length, a word's top bits, drawn
    again while at or above the bound (`randint` and `choice` draw the
    same). In order: n, then k; then, per buyer in id order, her parent:
    one `random()` (two words) when `seller_bias` is set, and a draw below
    the pool size unless that `random()` sent her to the seller; then, for
    a graph with `edge_density > 0`, one `random()` per pair u < v not
    joined by a tree edge, in (u, v) order, joining the pair when it is
    below `edge_density`; then k values below v_max + 1 per buyer in id
    order. A graph therefore reads about n² words whatever its density:
    about 0.25 s at n = 3200 on a 2-core x86-64 VM.
    """
    rng = random.Random(f"{config.seed}:{index}")
    getrandbits = rng.getrandbits
    low, high = config.buyers
    n = low + _below(getrandbits, high - low + 1)
    low, high = config.k
    k = low + _below(getrandbits, high - low + 1)
    width = max(2, len(str(max(n - 1, 0))))
    labels = {i: "b" + str(i).zfill(width) for i in range(n)}

    layer = {}
    seller_neighbors: set[BuyerId] = set()
    invited: dict[BuyerId, set[BuyerId]] = {i: set() for i in range(n)}
    # the seller, then every earlier buyer whose layer admits a child, ascending
    pool: list[BuyerId] = [-1]
    for i in range(n):
        if config.seller_bias and rng.random() < config.seller_bias:
            parent = -1
        else:
            parent = pool[_below(getrandbits, len(pool))]
        if parent < 0:
            seller_neighbors.add(i)
            layer[i] = 1
        else:
            invited[parent].add(i)
            layer[i] = layer[parent] + 1
        if config.max_depth is None or layer[i] < config.max_depth:
            pool.append(i)

    if config.topology == "graph" and config.edge_density > 0:
        _draw_edges(rng, invited, config.edge_density)

    bound = config.v_max + 1
    reports = {
        i: ReportedType(
            tuple(sorted((_below(getrandbits, bound) for _ in range(k)), reverse=True)),
            frozenset(invited[i]),
        )
        for i in range(n)
    }
    return ReportProfile(
        k=k,
        seller_neighbors=frozenset(seller_neighbors),
        reports=reports,
        labels=labels,
    )


def instance_stream(config: GeneratorConfig, count: int) -> Iterator[ReportProfile]:
    """The first `count` instances of the config's stream, index order."""
    for index in range(count):
        yield random_instance(config, index)
