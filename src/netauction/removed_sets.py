"""Competitor-exclusion sets that define the layer-based diffusion mechanism.

For a buyer i with children C_i, the removed set C_i^R joins two groups: her
children who can diffuse further (C_i^P) and her top-ranked childless children
by first-unit value (C_i^W, quota K + mu - |C_i^P|). W_l, the union of C^R over
layer l, lies in layer l+1; LDM reads only F_l = layers l and l+1 less W_l.
R_l = W_l + layers >= l+2 = layers >= l+1 - F_l is read off an LDM walk only,
as a layer record's `removed` (`mechanisms.LdmTrace.layers`); D_i = R_l + C_i + {i}.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import ContractError, MuTooSmall
from .market import BuyerId, Market, ReportProfile


def potential_inviters(market: Market, i: BuyerId) -> frozenset[BuyerId]:
    """Children of i who themselves have children (symbolically C_i^P)."""
    if i not in market.valid:
        raise ContractError(f"buyer {i} is not a valid buyer")
    return _inviter_sets(market)[0][i]


def _inviter_sets(market: Market) -> tuple[dict[BuyerId, frozenset[BuyerId]], int]:
    """Every valid buyer's C_i^P (see `potential_inviters`), and the largest
    |C_i^P|: the smallest valid mu. Built once per tree, on the first call,
    and kept on the market (`Market._inviters`), which `with_values`
    carries."""
    found = market._inviters
    if found is None:
        found = _build_inviter_sets(market.children)
        object.__setattr__(market, "_inviters", found)
    return found


def _build_inviter_sets(children: Mapping[BuyerId, frozenset[BuyerId]],
                        ) -> tuple[dict[BuyerId, frozenset[BuyerId]], int]:
    """`_inviter_sets` of a tree. `children` has one key per valid buyer; a
    leaf's C^P is her child set, the empty set leaves share."""
    inviting = {j for j, below in children.items() if below}
    inviters = {i: below & inviting if below else below for i, below in children.items()}
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
    inviter_sets = _checked_inviter_sets(market, mu)  # MuTooSmall before a bad buyer
    if i not in market.valid:
        raise ContractError(f"buyer {i} is not a valid buyer")
    return removed_set_of(market, market.children[i], inviter_sets[i], mu) - inviter_sets[i]


def removed_sets_for(market: Market, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """Every buyer's C_i^R = C_i^P plus C_i^W (see `potential_winners`).

    Each C_i^P is built once, and mu is checked against the largest of them.
    """
    children = market.children
    return {i: removed_set_of(market, children[i], inviters, mu)
            for i, inviters in _checked_inviter_sets(market, mu).items()}


def _checked_inviter_sets(market: Market, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """Every valid buyer's C_i^P, once mu is checked against the largest."""
    inviter_sets, required = _inviter_sets(market)
    if mu < required:
        raise MuTooSmall(required, mu)
    return inviter_sets


def removed_set_of(market: Market, children: frozenset[BuyerId],
                   inviters: frozenset[BuyerId], mu: int) -> frozenset[BuyerId]:
    """C_i^R of a buyer i with the child set `children` and, among them, the
    inviters C_i^P: the inviters plus C_i^W, the top K + mu - |C_i^P| other
    children by first-unit value, ties to the smaller id. Taking the child
    set, not i, it also gives C^R when i invites fewer of her children or
    one of them stops inviting. mu is not checked here.
    """
    quota = market.k + mu - len(inviters)
    if len(children) - len(inviters) <= quota:
        return children  # every other child fits the quota: no ranking needed
    # the only place LDM ranks buyers to choose whom it removes
    ranked = sorted((j for j in children if j not in inviters),
                    key=lambda j: (-market.first_unit(j), j))
    return inviters | frozenset(ranked[:quota])


def layer_free_sets(market: Market, mu: int) -> Iterator[frozenset[BuyerId]]:
    """F_1, F_2, ... in layer order, each built only when it is asked for.

    F_l, the buyers layer l's welfare problem leaves free, is layers l and
    l+1 less W_l, the union of C_i^R over layer l, which lies in layer l+1.
    mu is checked once, against every buyer's C^P, before F_1; C^W is ranked
    only for the members of the layers asked for. No set holds a layer >= l+2.
    """
    inviter_sets = _checked_inviter_sets(market, mu)
    children = market.children
    for l, layer in enumerate(market.layers, start=1):
        winners = (removed_set_of(market, children[i], inviter_sets[i], mu) for i in layer)
        yield layer.union(*market.layers[l:l + 1]).difference(*winners)
