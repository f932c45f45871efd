"""Slow, obvious versions of the BFS tree, the removed sets, DNA-MU, LDM-Tree,
first-layer VCG and LDM's value rerun.

The oracle for the fast paths in `netauction.market`,
`netauction.removed_sets` and `netauction.mechanisms`, in the pattern of
`brute_force_welfare`: every `SW_{-D_i}` and every VCG `SW_{-i}` is a fresh
`constrained_welfare` solve on the explicit buyer set, each BFS parent comes
from a scan of the whole previous layer, DNA-MU reads every buyer's
descendant set built up front by recursion, and each buyer's C^P and C^W are
built one buyer at a time. Testing use only; it must never share code with
the sorted welfare pool, the linear tree construction or
`netauction.removed_sets`. The one exception is `ldm_value_rerun`, the
rerun that replays layers L-1 and L with fresh pools for every vector: it is
built from the library's own per-layer step, so it is compared with the
black box as well as with the merged-rank rerun that replaced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from netauction.errors import MuTooSmall
from netauction.market import (
    SELLER,
    BuyerId,
    Market,
    Money,
    ReportedType,
    TreeMarket,
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
    Outcome,
    ValueRerun,
    VcgTrace,
    _ldm_layer,
    _ldm_payment,
    inject_dummies,
)
from netauction.removed_sets import layer_removed_sets, removed_set_of
from netauction.welfare import constrained_welfare, kth_highest_first_unit


@dataclass(frozen=True)
class ReferenceTree:
    """The tree, beside the scanned parents and recursive descendant sets."""

    tree: TreeMarket
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
    tree = TreeMarket(market=market,
                      children={i: frozenset(c) for i, c in children.items()})
    return ReferenceTree(tree, parent, descendants)


def run_dna_mu(ref: ReferenceTree) -> Outcome:
    """DNA-MU pricing each buyer with her precomputed descendant set removed."""
    tree = ref.tree
    market = tree.market
    k_remaining = market.profile.k
    winners: set[BuyerId] = set()
    units = {i: 0 for i in market.valid}
    payments = {i: 0 for i in market.valid}
    rows: list[DnaRow] = []
    done = False
    for d, layer in enumerate(tree.layers, start=1):
        if done:
            break
        for i in sorted(layer):
            if k_remaining == 0:
                done = True
                break
            pool = market.valid - ref.descendants[i] - winners - {i}
            price = kth_highest_first_unit(market, pool, k_remaining)
            won = tree.first_unit(i) >= price
            rows.append(DnaRow(i, d, price, won, k_remaining))
            if won:
                units[i] = 1
                payments[i] = price
                winners.add(i)
                k_remaining -= 1
    return Outcome(units=units, payments=payments, trace=DnaTrace(tuple(rows)))


def run_vcg_first_layer(market: Market, reserve: int | None = None) -> Outcome:
    """Clarke pivot over layer 1, re-solving the welfare problem once per buyer."""
    if reserve is not None:
        aug = compute_market(inject_dummies(market.profile, reserve))
    else:
        aug = market
    k = market.profile.k
    if not aug.layers:
        zeros = {i: 0 for i in market.valid if not is_dummy(i)}
        return Outcome(units=dict(zeros), payments=dict(zeros),
                       trace=VcgTrace(0, {}, {}))
    layer1 = aug.layers[0]
    full = constrained_welfare(aug, layer1, {}, k)
    units = {i: 0 for i in market.valid}
    payments = {i: 0 for i in market.valid}
    sw_without: dict[BuyerId, Money] = {}
    for i in sorted(layer1):
        if is_dummy(i) or i not in market.valid:
            continue
        pi = full.units_of(i)
        without = constrained_welfare(aug, layer1 - {i}, {}, k).welfare
        sw_without[i] = without
        units[i] = pi
        payments[i] = without - (full.welfare - cumulative_value(aug.values_of(i), pi))
    trace = VcgTrace(sw=full.welfare, allocation=full.allocation,
                     sw_without=sw_without)
    return Outcome(units=units, payments=payments, trace=trace)


def potential_inviters(tree: TreeMarket, i: BuyerId) -> frozenset[BuyerId]:
    """C_i^P: children of i who themselves have children."""
    return frozenset(j for j in tree.children[i] if tree.children[j])


def potential_winners(tree: TreeMarket, i: BuyerId, mu: int) -> frozenset[BuyerId]:
    """C_i^W: the top K + mu - |C_i^P| other children by first unit, ties to the smaller id."""
    inviters = potential_inviters(tree, i)
    candidates = sorted(
        (j for j in tree.children[i] if j not in inviters),
        key=lambda j: (-tree.first_unit(j), j),
    )
    return frozenset(candidates[:tree.k + mu - len(inviters)])


def removed_sets_for(tree: TreeMarket, mu: int) -> dict[BuyerId, frozenset[BuyerId]]:
    """C_i^R = C_i^P | C_i^W per buyer, after checking mu against every |C_i^P|."""
    required = max((len(potential_inviters(tree, i)) for i in tree.valid), default=0)
    if mu < required:
        raise MuTooSmall(required, mu)
    return {i: potential_inviters(tree, i) | potential_winners(tree, i, mu)
            for i in tree.valid}


def run_ldm_tree(tree: TreeMarket, mu: int) -> Outcome:
    """LDM-Tree with every SW_{-D_i} solved on the explicit set valid - D_i."""
    market = tree.market
    k = market.profile.k
    valid = market.valid
    reports = market.profile.reports
    units = {i: 0 for i in valid if not is_dummy(i)}
    payments = {i: 0 for i in valid if not is_dummy(i)}
    per_buyer_removed = removed_sets_for(tree, mu)
    if not tree.layers:
        return Outcome(units=units, payments=payments,
                       trace=LdmTrace(mu, k, (), tree))

    suffix: list[frozenset[BuyerId]] = [frozenset()] * (tree.depth + 1)
    acc: set[BuyerId] = set()
    for d in range(tree.depth - 1, -1, -1):
        acc |= tree.layers[d]
        suffix[d] = frozenset(acc)

    committed: dict[BuyerId, int] = {}
    k_remain = k
    records: list[LayerRecord] = []
    for l in range(1, tree.depth + 1):
        members = sorted(tree.layers[l - 1])
        r_l: set[BuyerId] = set(suffix[l + 1]) if l + 1 <= tree.depth else set()
        for i in members:
            r_l |= per_buyer_removed[i]
        included = valid - r_l
        layer_opt = constrained_welfare(market, included, committed, k)
        sw_l = layer_opt.welfare
        sw_d: dict[BuyerId, Money] = {}
        for i in members:
            d_i = r_l | tree.children[i] | {i}
            sw_d[i] = constrained_welfare(market, valid - d_i, committed, k).welfare
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
            removed=frozenset(r_l),
            included=frozenset(included),
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
                   trace=LdmTrace(mu, k, tuple(records), tree))


def run_ldm(market: Market, mu: int, reserve: int | None = None) -> Outcome:
    """LDM on graphs through the reference tree and the reference LDM-Tree."""
    if reserve is None:
        return run_ldm_tree(build_bfs_tree(market).tree, mu)
    aug = compute_market(inject_dummies(market.profile, reserve))
    out = run_ldm_tree(build_bfs_tree(aug).tree, mu)
    units = {i: m for i, m in out.units.items() if not is_dummy(i)}
    payments = {i: p for i, p in out.payments.items() if not is_dummy(i)}
    return Outcome(units=units, payments=payments, trace=out.trace)


def ldm_value_rerun(tree: TreeMarket, mu: int, i: BuyerId) -> ValueRerun:
    """i's (units, payment) under `run_ldm_tree(tree.with_values(i, v), mu)`,
    replaying layers L-1 and L for every vector v, with i in layer L.

    Layers up to L-2 are committed once; if they sell every unit, i gets
    (0, 0). Per vector, i's report is swapped in a private copy of the
    profile, her parent's C^R re-ranked, and both layers solved with fresh
    welfare pools.
    """
    market = tree.market
    layer = market.layer_of[i]
    removed = layer_removed_sets(tree, mu)
    committed: dict[BuyerId, int] = {}
    k_remain = market.k
    for members, r_l in zip(tree.layers[:max(layer - 2, 0)], removed):
        k_remain -= _ldm_layer(market, members, market.valid - r_l, committed)[2]
        if k_remain == 0:
            return lambda v: (0, 0)
    if layer > 1:
        parent = next(j for j in tree.layers[layer - 2] if i in tree.children[j])
        inviters = potential_inviters(tree, parent)
        # R_{L-1} without the parent's C^R, a subset of her children
        r_prev_rest = next(removed) - tree.children[parent]
    included_own = market.valid - next(removed)
    reports = dict(market.profile.reports)
    own = TreeMarket(replace(market, profile=replace(market.profile, reports=reports)),
                     tree.children)
    invited = reports[i].invited

    def rerun(v: ValuationVector) -> tuple[int, Money]:
        reports[i] = ReportedType(v, invited)
        fixed = dict(committed)
        left = k_remain
        if layer > 1:
            r_prev = r_prev_rest | removed_set_of(own, parent, inviters, mu)
            left -= _ldm_layer(own.market, own.layers[layer - 2], own.valid - r_prev, fixed)[2]
            if left == 0:
                return 0, 0
        pool, layer_opt, _ = _ldm_layer(own.market, (), included_own, fixed)
        if is_dummy(i):
            return 0, 0
        return layer_opt.units_of(i), _ldm_payment(own, pool, layer_opt, i)[1]

    return rerun
