"""Competitor-exclusion sets that define the layer-based diffusion mechanism.

For a buyer i with children C_i, the removed set C_i^R joins two groups: her
children who can diffuse further (C_i^P) and her top-ranked childless children
by first-unit value (C_i^W, quota K + mu - |C_i^P|). Removing every layer
member's C^R plus all layers >= l+2 yields the layer removed set R_l; adding
i's own children and i itself yields her payment exclusion set D_i.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .errors import ContractError, MuTooSmall
from .market import BuyerId, Market, ReportProfile


def potential_inviters(market: Market, i: BuyerId) -> frozenset[BuyerId]:
    """Children of i who themselves have children (symbolically C_i^P)."""
    if i not in market.valid:
        raise ContractError(f"buyer {i} is not a valid buyer")
    return frozenset(j for j in market.children[i] if market.children[j])


def _inviter_sets(market: Market) -> tuple[dict[BuyerId, frozenset[BuyerId]], int]:
    """Every valid buyer's C_i^P (see `potential_inviters`), and the largest
    |C_i^P|: the smallest valid mu. `children` has one key per valid buyer."""
    children = market.children
    inviting = {j for j, below in children.items() if below}
    inviters = {i: below & inviting for i, below in children.items()}
    return inviters, max(map(len, inviters.values()), default=0)


def min_valid_mu(market: Market) -> int:
    """Smallest mu the mechanism accepts: the largest |C_i^P| in the tree."""
    return _inviter_sets(market)[1]


def robust_mu(profile: ReportProfile) -> int:
    """Prior bound on |C_i^P| valid for every shrunken report profile.

    On graphs, hiding a neighbor can reattach it under a different same-layer
    parent and grow that parent's C^P past the truthful tree's maximum, so a
    bound that must survive deviations counts, per buyer, all invitees who
    themselves invite anyone. On out-trees this equals min_valid_mu.
    """
    best = 0
    for rep in profile.reports.values():
        n = sum(
            1 for w in rep.invited
            if w in profile.reports and profile.reports[w].invited
        )
        if n > best:
            best = n
    return best


def potential_winners(market: Market, i: BuyerId, mu: int) -> frozenset[BuyerId]:
    """Top K + mu - |C_i^P| children of i (excluding C_i^P) by first-unit value.

    Ties resolve toward the smaller buyer id. With fewer candidates than the
    quota, all of them qualify.
    """
    removed = removed_sets_for(market, mu)
    inviters = potential_inviters(market, i)  # ContractError for a buyer outside the tree
    return removed[i] - inviters


def removed_sets_for(market: Market, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """Every buyer's C_i^R = C_i^P plus C_i^W (see `potential_winners`).

    Each C_i^P is built once, and mu is checked against the largest of them.
    """
    return {i: removed_set_of(market, i, inviters, mu)
            for i, inviters in _checked_inviter_sets(market, mu).items()}


def _checked_inviter_sets(market: Market, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """Every valid buyer's C_i^P, once mu is checked against the largest."""
    inviter_sets, required = _inviter_sets(market)
    if mu < required:
        raise MuTooSmall(required, mu)
    return inviter_sets


def removed_set_of(market: Market, i: BuyerId, inviters: frozenset[BuyerId],
                   mu: int) -> frozenset[BuyerId]:
    """C_i^R from i's C_i^P: the inviters plus C_i^W, the top K + mu - |C_i^P|
    other children by first-unit value, ties to the smaller id. mu is not
    checked here.
    """
    children = market.children[i]
    quota = market.k + mu - len(inviters)
    if len(children) - len(inviters) <= quota:
        return children  # every other child fits the quota: no ranking needed
    return inviters | frozenset(_ranked_candidates(market, i, inviters)[:quota])


def _ranked_candidates(market: Market, i: BuyerId,
                       inviters: frozenset[BuyerId]) -> list[BuyerId]:
    """i's children outside C_i^P, larger first-unit value first, ties to the
    smaller id: the only place LDM ranks buyers by value."""
    return sorted((j for j in market.children[i] if j not in inviters),
                  key=lambda j: (-market.first_unit(j), j))


def removed_set_holding(market: Market, i: BuyerId, inviters: frozenset[BuyerId], mu: int,
                        j: BuyerId) -> frozenset[BuyerId]:
    """C_i^R for every first-unit value of i's child j that puts j in it.

    That is `removed_set_of` when j is in C_i^P or every child outside C_i^P
    fits the quota, for then C_i^R holds j whatever she reports. Otherwise j
    is in C_i^W iff she ranks ahead of the quota-th other candidate, and C_i^R
    is C_i^P, j and the candidates ahead of that one.
    """
    children = market.children[i]
    quota = market.k + mu - len(inviters)
    if j in inviters or len(children) - len(inviters) <= quota:
        return removed_set_of(market, i, inviters, mu)
    others = [c for c in _ranked_candidates(market, i, inviters) if c != j]
    return inviters.union(others[:quota - 1], (j,))


def layer_removed_sets(market: Market, mu: int) -> Iterator[frozenset[BuyerId]]:
    """R_1, R_2, ... in layer order, each built only when it is asked for.

    R_l is the union of C_i^R over layer l plus every buyer in layers >= l+2.
    mu is checked once, against every buyer's C^P, before R_1; C^W is ranked
    only for the members of the layers asked for.
    """
    inviter_sets = _checked_inviter_sets(market, mu)
    deeper = set().union(*market.layers[2:])
    for d, layer in enumerate(market.layers):
        yield frozenset().union(
            deeper, *(removed_set_of(market, i, inviter_sets[i], mu) for i in layer))
        if d + 2 < market.depth:
            deeper -= market.layers[d + 2]


def layer_removed_set(market: Market, layer: int, mu: int) -> frozenset[BuyerId]:
    """R_l for one layer l, read from `layer_removed_sets`."""
    if not 1 <= layer <= market.depth:
        raise ContractError(f"layer {layer} outside 1..{market.depth}")
    return next(islice(layer_removed_sets(market, mu), layer - 1, None))


def exclusion_set(market: Market, i: BuyerId, mu: int) -> frozenset[BuyerId]:
    """D_i = R_l ∪ C_i ∪ {i} for i in layer l: hides i and all her influence."""
    layer = market.layer_of[i]
    return layer_removed_set(market, layer, mu) | market.children[i] | {i}
