"""Slow, obvious versions of the BFS tree, the removed sets, DNA-MU and its
invitation menu, LDM-Tree, first-layer VCG and LDM's value rerun.

The oracle for the fast paths in `netauction.market`,
`netauction.removed_sets`, `netauction.welfare` and `netauction.mechanisms`,
in the pattern of `brute_force_welfare`: every layer optimum, `SW_{-D_i}` and
VCG `SW_{-i}` is a fresh `greedy_welfare` solve on the explicit buyer set,
with the earlier layers fixed at their units, handing out one unit at a time;
each BFS parent comes from a scan of the whole previous layer, DNA-MU reads
every buyer's descendant set built up front by recursion and prices from a
full sort (its invitation menu sorts the first units apart from the run),
and each buyer's C^P and C^W are built one buyer at a time.
Testing use only; it must never share code with the sorted welfare pool
(`netauction.welfare`), the linear tree construction or
`netauction.removed_sets`: every R_l is the union of the per-buyer C^R sets
and a suffix union of the deeper layers (`layer_removed_sets`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

from netauction.errors import MuTooSmall
from netauction.market import (
    SELLER,
    BuyerId,
    Market,
    Money,
    ReportedType,
    ValuationVector,
    compute_market,
    cumulative_value,
    is_dummy,
)
from netauction.mechanisms import (
    DnaRow,
    DnaTrace,
    LayerRecord,
    LdmTrace,
    Menu,
    Outcome,
    ValueRerun,
    inject_dummies,
)


@dataclass(frozen=True)
class Solved:
    """A welfare optimum: total reported value and units per buyer holding any."""

    welfare: Money
    allocation: dict[BuyerId, int]

    def units_of(self, i: BuyerId) -> int:
        return self.allocation.get(i, 0)


def greedy_welfare(market: Market, included: Iterable[BuyerId],
                   fixed: Mapping[BuyerId, int], k: int) -> Solved:
    """Maximize total reported value over `included` with at most k units,
    the buyers in `fixed` (all included) holding exactly their units.

    The free units go out one at a time, each to the largest next marginal
    among the free buyers, ties to the smaller id; a buyer's next marginal is
    always her earliest unit not yet taken. Zero marginals are handed out
    too, until the units or the marginals run out.
    """
    reports = market.profile.reports
    held = {i: 0 for i in included if i not in fixed}
    welfare = sum(cumulative_value(reports[i].values, m) for i, m in fixed.items())
    for _ in range(k - sum(fixed.values())):
        offers = [(reports[i].values[m], -i) for i, m in held.items()
                  if m < len(reports[i].values)]
        if not offers:
            break
        value, neg_id = max(offers)
        held[-neg_id] += 1
        welfare += value
    allocation = {i: m for i, m in fixed.items() if m}
    allocation.update((i, m) for i, m in held.items() if m)
    return Solved(welfare, allocation)


def kth_first_unit(market: Market, buyers: Iterable[BuyerId], k: int) -> Money:
    """The k-th largest first-unit report among `buyers`, from a full sort;
    0 when fewer than k."""
    firsts = sorted((market.first_unit(i) for i in buyers), reverse=True)
    return firsts[k - 1] if len(firsts) >= k else 0


@dataclass(frozen=True)
class ReferenceTree:
    """The tree, beside the scanned parents and recursive descendant sets."""

    tree: Market
    parent: dict[BuyerId, BuyerId]
    descendants: dict[BuyerId, frozenset[BuyerId]]


def build_bfs_tree(market: Market) -> ReferenceTree:
    """Parent = the smallest-id inviter in the previous layer, found by scanning it."""
    reports = market.profile.reports
    parent: dict[BuyerId, BuyerId] = {}
    children: dict[BuyerId, set[BuyerId]] = {i: set() for i in market.valid}
    prev: list[BuyerId] = []
    for d, layer in enumerate(market.layers):
        for j in sorted(layer):
            if d == 0:
                parent[j] = SELLER
            else:
                p = min(i for i in prev if j in reports[i].invited)
                parent[j] = p
                children[p].add(j)
        prev = sorted(layer)

    descendants: dict[BuyerId, frozenset[BuyerId]] = {}

    def collect(i: BuyerId) -> frozenset[BuyerId]:
        if i not in descendants:
            acc: set[BuyerId] = set()
            for c in children[i]:
                acc.add(c)
                acc |= collect(c)
            descendants[i] = frozenset(acc)
        return descendants[i]

    for i in market.valid:
        collect(i)
    tree = replace(market, children={i: frozenset(c) for i, c in children.items()})
    return ReferenceTree(tree, parent, descendants)


def run_dna_mu(ref: ReferenceTree) -> Outcome:
    """DNA-MU pricing each buyer with her precomputed descendant set removed."""
    market = ref.tree
    k_remaining = market.profile.k
    winners: set[BuyerId] = set()
    units = {i: 0 for i in market.valid}
    payments = {i: 0 for i in market.valid}
    rows: list[DnaRow] = []
    done = False
    for d, layer in enumerate(market.layers, start=1):
        if done:
            break
        for i in sorted(layer):
            if k_remaining == 0:
                done = True
                break
            outside = market.valid - ref.descendants[i] - {i}
            price = kth_first_unit(market, outside - winners, k_remaining)
            won = market.first_unit(i) >= price
            rows.append(DnaRow(i, d, price, won, k_remaining,
                               kth_first_unit(market, outside, market.k)))
            if won:
                units[i] = 1
                payments[i] = price
                winners.add(i)
                k_remaining -= 1
    return Outcome(units=units, payments=payments, trace=DnaTrace(tuple(rows)))


def dna_mu_invitation_menu(market: Market) -> Callable[[BuyerId], Menu]:
    """DNA-MU's invitation menu built apart from the run, as the library
    built it before the run recorded x_K: one sort of the market's first
    units, and per buyer a `Market.subtree` walk and a walk down that sort
    to the K-th highest first unit outside her closed subtree."""
    ranked = sorted(((market.first_unit(j), j) for j in market.valid), reverse=True)

    def menu(i: BuyerId) -> Menu:
        closed = market.subtree(i) | {i}
        outside = [value for value, j in ranked if j not in closed]
        return ((0, 0), (1, outside[market.k - 1] if len(outside) >= market.k else 0))

    return menu


def run_vcg_first_layer(market: Market, reserve: int | None = None) -> Outcome:
    """Clarke pivot over layer 1, re-solving the welfare problem once per
    layer-1 buyer, dummies included; traced as LDM's one layer at mu 0, where
    each SW_{-D_i} is SW_{-i}."""
    if reserve is not None:
        aug = compute_market(inject_dummies(market.profile, reserve))
    else:
        aug = market
    k = market.profile.k
    units = {i: 0 for i in market.valid}
    payments = {i: 0 for i in market.valid}
    if not aug.layers:
        return Outcome(units=units, payments=payments, trace=LdmTrace(0, (), aug))
    layer1 = aug.layers[0]
    full = greedy_welfare(aug, layer1, {}, k)
    sw_without: dict[BuyerId, Money] = {}
    for i in sorted(layer1):
        sw_without[i] = greedy_welfare(aug, layer1 - {i}, {}, k).welfare
        if is_dummy(i) or i not in market.valid:
            continue
        pi = full.units_of(i)
        units[i] = pi
        payments[i] = sw_without[i] - (full.welfare - cumulative_value(aug.values_of(i), pi))
    record = LayerRecord(
        layer=1,
        sw=full.welfare,
        tentative_units=dict(full.allocation),
        tentative_value={j: cumulative_value(aug.values_of(j), m)
                         for j, m in full.allocation.items()},
        sw_minus_d=sw_without,
        k_remain_after=k - sum(full.allocation.values()),
    )
    return Outcome(units=units, payments=payments, trace=LdmTrace(0, (record,), aug))


def potential_inviters(tree: Market, i: BuyerId) -> frozenset[BuyerId]:
    """C_i^P: children of i who themselves have children."""
    return frozenset(j for j in tree.children[i] if tree.children[j])


def potential_winners(tree: Market, i: BuyerId, mu: int) -> frozenset[BuyerId]:
    """C_i^W: the top K + mu - |C_i^P| other children by first unit, ties to the smaller id."""
    inviters = potential_inviters(tree, i)
    candidates = sorted(
        (j for j in tree.children[i] if j not in inviters),
        key=lambda j: (-tree.first_unit(j), j),
    )
    return frozenset(candidates[:tree.k + mu - len(inviters)])


def removed_sets_for(tree: Market, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """C_i^R = C_i^P | C_i^W per buyer, after checking mu against every |C_i^P|."""
    required = max((len(potential_inviters(tree, i)) for i in tree.valid), default=0)
    if mu < required:
        raise MuTooSmall(required, mu)
    return {i: potential_inviters(tree, i) | potential_winners(tree, i, mu)
            for i in tree.valid}


def layer_removed_sets(tree: Market, mu: int) -> list[frozenset[BuyerId]]:
    """R_1, R_2, ..., each the union of layer l's C^R sets and a suffix union
    of the layers >= l+2, all built up front, after the mu check."""
    per_buyer = removed_sets_for(tree, mu)
    suffix = [frozenset()] * (len(tree.layers) + 2)
    for d in range(len(tree.layers) - 1, -1, -1):
        suffix[d] = tree.layers[d] | suffix[d + 1]
    return [frozenset().union(suffix[d + 2], *(per_buyer[i] for i in layer))
            for d, layer in enumerate(tree.layers)]


def run_ldm_tree(market: Market, mu: int) -> Outcome:
    """LDM-Tree with every SW_{-D_i} solved on the explicit set valid - D_i."""
    k = market.profile.k
    valid = market.valid
    reports = market.profile.reports
    units = {i: 0 for i in valid if not is_dummy(i)}
    payments = {i: 0 for i in valid if not is_dummy(i)}
    committed: dict[BuyerId, int] = {}
    k_remain = k
    records: list[LayerRecord] = []
    for l, r_l in enumerate(layer_removed_sets(market, mu), start=1):
        members = sorted(market.layers[l - 1])
        included = valid - r_l
        layer_opt = greedy_welfare(market, included, committed, k)
        sw_l = layer_opt.welfare
        sw_d: dict[BuyerId, Money] = {}
        for i in members:
            d_i = r_l | market.children[i] | {i}
            sw_d[i] = greedy_welfare(market, valid - d_i, committed, k).welfare
            pi = layer_opt.units_of(i)
            if not is_dummy(i):
                units[i] = pi
            if pi:
                k_remain -= pi
                payment = sw_d[i] - (sw_l - cumulative_value(reports[i].values, pi))
            else:
                payment = sw_d[i] - sw_l
            if not is_dummy(i):
                payments[i] = payment
        for i in members:
            committed[i] = layer_opt.units_of(i)
        records.append(LayerRecord(
            layer=l,
            sw=sw_l,
            tentative_units=dict(layer_opt.allocation),
            tentative_value={
                j: cumulative_value(reports[j].values, m)
                for j, m in layer_opt.allocation.items()
            },
            sw_minus_d=sw_d,
            k_remain_after=k_remain,
        ))
        if k_remain == 0:
            break
    return Outcome(units=units, payments=payments,
                   trace=LdmTrace(mu, tuple(records), market))


def run_ldm(market: Market, mu: int, reserve: int | None = None) -> Outcome:
    """LDM on graphs through the reference tree and the reference LDM-Tree."""
    if reserve is None:
        return run_ldm_tree(build_bfs_tree(market).tree, mu)
    aug = compute_market(inject_dummies(market.profile, reserve))
    out = run_ldm_tree(build_bfs_tree(aug).tree, mu)
    units = {i: m for i, m in out.units.items() if not is_dummy(i)}
    payments = {i: p for i, p in out.payments.items() if not is_dummy(i)}
    return Outcome(units=units, payments=payments, trace=out.trace)


def ldm_value_rerun(market: Market, mu: int, i: BuyerId) -> ValueRerun:
    """i's (units, payment) under `run_ldm_tree(market.with_values(i, v), mu)`,
    replaying layers L-1 and L for every vector v, with i in layer L.

    Layers up to L-2 are committed once; if they sell every unit, i gets
    (0, 0). Per vector, i's report is swapped in a private copy of the
    profile, her parent's C^R re-ranked, and both layers, and her
    SW_{-D_i}, solved afresh with `greedy_welfare` over their free buyers,
    each built here as valid - R_l less the processed layers.
    """
    layer = market.layer_of[i]
    removed = iter(layer_removed_sets(market, mu))
    k_remain = market.k
    for l, r_l in zip(range(1, layer - 1), removed):
        solved = greedy_welfare(market, layer_free_buyers(market, l, r_l), {}, k_remain)
        k_remain -= sum(map(solved.units_of, market.layers[l - 1]))
        if k_remain == 0:
            return ValueRerun(lambda v: (0, 0))
    if layer > 1:
        parent = next(j for j in market.layers[layer - 2] if i in market.children[j])
        inviters = potential_inviters(market, parent)
        # R_{L-1} without the parent's C^R, a subset of her children
        r_prev_rest = next(removed) - market.children[parent]
    free_own = layer_free_buyers(market, layer, next(removed))
    reports = dict(market.profile.reports)
    own = replace(market, profile=replace(market.profile, reports=reports))
    invited = reports[i].invited

    def rerun(v: ValuationVector) -> tuple[int, Money]:
        reports[i] = ReportedType(v, invited)
        left = k_remain
        if layer > 1:
            r_prev = r_prev_rest | inviters | potential_winners(own, parent, mu)
            free_prev = layer_free_buyers(own, layer - 1, r_prev)
            solved = greedy_welfare(own, free_prev, {}, left)
            left -= sum(map(solved.units_of, own.layers[layer - 2]))
            if left == 0:
                return 0, 0
        if is_dummy(i):
            return 0, 0
        layer_opt = greedy_welfare(own, free_own, {}, left)
        won = layer_opt.units_of(i)
        sw_d = greedy_welfare(own, free_own - own.children[i] - {i}, {}, left).welfare
        return won, sw_d - (layer_opt.welfare - cumulative_value(v, won))

    return ValueRerun(rerun)


def layer_free_buyers(market: Market, l: int, r_l: frozenset[BuyerId]) -> frozenset[BuyerId]:
    """Layer l's free buyers: valid - R_l less every buyer of layers 1..l-1."""
    return market.valid - r_l - frozenset().union(*market.layers[:l - 1])
