"""Slow, obvious versions of `parse_instance`, `validate_profile`,
`serialize_instance` and `random_instance`.

The oracle for the bulk checks in `netauction.instance_io` and
`netauction.market`, in the pattern of `brute_force_welfare`: every key,
label, id and value is checked one at a time, in canonical order, by code
that shares nothing with the fast path but the error types and the profile
dataclasses. The serializer builds the document and hands it to json's
indent encoder. The generator calls `randint`, `choice` and `random()`,
walks every buyer pair and asks whether a tree edge already joins it
before it draws. Testing use only.
"""

from __future__ import annotations

import json
import random

from netauction.errors import ParseError, ValidationError
from netauction.instance_io import GeneratorConfig
from netauction.market import DUMMY_BASE, ReportProfile, ReportedType


def _as_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_profile(raw: ReportProfile) -> ReportProfile:
    """Every invariant checked item by item; the first violation raises."""
    if not _as_int(raw.k) or raw.k < 1:
        raise ValidationError(None, f"k must be a positive integer, got {raw.k!r}")
    if raw.mu is not None and not _as_int(raw.mu):
        raise ValidationError(None, "mu must be an integer when present")
    known = set(raw.reports)
    for s in sorted(raw.seller_neighbors):
        if s not in known:
            raise ValidationError(s, "seller neighbor is not a known buyer")
    for i in sorted(raw.reports):
        if not _as_int(i) or i < 0:
            raise ValidationError(i, "buyer id must be a non-negative integer")
        if i >= DUMMY_BASE:
            raise ValidationError(i, f"buyer id must be below {DUMMY_BASE}, "
                                     "where reserve-price dummies start")
        rep = raw.reports[i]
        vals = rep.values
        if len(vals) != raw.k:
            raise ValidationError(i, f"valuation vector has length {len(vals)}, expected k={raw.k}")
        for v in vals:
            if not _as_int(v) or v < 0:
                raise ValidationError(i, f"marginal value {v!r} is not a non-negative integer")
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise ValidationError(i, "non-increasing violated")
        if i in rep.invited:
            raise ValidationError(i, "self-invite")
        for j in sorted(rep.invited):
            if j not in known:
                raise ValidationError(i, f"invited unknown buyer {j}")
    return raw


def _reject_float(value: str):
    raise ParseError(f"float literal {value!r} not allowed; money is integral")


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_instance(text: str) -> ReportProfile:
    """Instance text to a validated profile, one label and one check at a time."""
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:
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

    def resolve(label, context: str) -> int:
        if not isinstance(label, str):
            raise ParseError(f"{context}: label {label!r} must be a string")
        if label not in ids:
            raise ParseError(f"{context}: unknown buyer label {label!r}")
        return ids[label]

    neighbors = doc["seller_neighbors"]
    if not isinstance(neighbors, list):
        raise ParseError("seller_neighbors must be an array")
    seller = frozenset(resolve(x, "seller_neighbors") for x in neighbors)

    reports = {}
    for label in sorted(buyers):
        entry = buyers[label]
        if not isinstance(entry, dict) or set(entry) - {"values", "neighbors"}:
            raise ParseError(f"buyer {label!r}: expected values/neighbors object")
        values = entry.get("values")
        if not isinstance(values, list):
            raise ParseError(f"buyer {label!r}: values must be an array of integers")
        invited = entry.get("neighbors", [])
        if not isinstance(invited, list):
            raise ParseError(f"buyer {label!r}: neighbors must be an array")
        reports[ids[label]] = ReportedType(
            tuple(values),
            frozenset(resolve(x, f"buyer {label!r} neighbors") for x in invited),
        )
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


def serialize_instance(profile: ReportProfile) -> str:
    """Canonical instance text, through `json.dumps(doc, indent=2)`."""
    label = profile.label_of
    doc: dict = {"k": profile.k}
    if profile.mu is not None:
        doc["mu"] = profile.mu
    doc["seller_neighbors"] = sorted(label(i) for i in profile.seller_neighbors)
    doc["buyers"] = {
        label(i): {
            "values": list(profile.reports[i].values),
            "neighbors": sorted(label(j) for j in profile.reports[i].invited),
        }
        for i in sorted(profile.reports, key=label)
    }
    return json.dumps(doc, indent=2) + "\n"


def random_instance(config: GeneratorConfig, index: int = 0) -> ReportProfile:
    """Instance `index` of the config's stream, one `random()` per unjoined pair."""
    rng = random.Random(f"{config.seed}:{index}")
    n = rng.randint(*config.buyers)
    k = rng.randint(*config.k)
    width = max(2, len(str(max(n - 1, 0))))
    labels = {i: f"b{i:0{width}d}" for i in range(n)}

    layer = {}
    seller_neighbors: set[int] = set()
    invited: dict[int, set[int]] = {i: set() for i in range(n)}
    pool: list[int] = [-1]
    for i in range(n):
        if config.seller_bias and rng.random() < config.seller_bias:
            parent = -1
        else:
            parent = rng.choice(pool)
        if parent < 0:
            seller_neighbors.add(i)
            layer[i] = 1
        else:
            invited[parent].add(i)
            layer[i] = layer[parent] + 1
        if config.max_depth is None or layer[i] < config.max_depth:
            pool.append(i)

    if config.topology == "graph" and config.edge_density > 0:
        for u in range(n):
            for v in range(u + 1, n):
                if v in invited[u] or u in invited[v]:
                    continue
                if rng.random() < config.edge_density:
                    invited[u].add(v)
                    invited[v].add(u)

    reports = {
        i: ReportedType(
            tuple(sorted((rng.randint(0, config.v_max) for _ in range(k)), reverse=True)),
            frozenset(invited[i]),
        )
        for i in range(n)
    }
    profile = ReportProfile(
        k=k,
        seller_neighbors=frozenset(seller_neighbors),
        reports=reports,
        labels=labels,
    )
    return validate_profile(profile)
