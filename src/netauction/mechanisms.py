"""The four auction mechanisms: first-layer VCG, DNA-MU, LDM-Tree, and LDM.

Every mechanism returns an Outcome mapping each valid buyer to her unit count
and signed payment (negative = reward). Invalid buyers never appear; their
units and payments are 0 by definition and nothing they report can move the
result. A reserve price is a change to the market, not a mechanism argument:
`inject_dummies(profile, r)` adds K synthetic unit-demand dummy buyers to
layer 1. They compete in every welfare problem of LDM and first-layer VCG,
their ids sit above all real ids so real buyers win ties, and any units they
capture are withheld from sale rather than reassigned; no outcome lists them.
DNA-MU takes no reserve and refuses a market with dummies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ContractError, ValidationError
from .market import (
    DUMMY_BASE,
    BuyerId,
    Market,
    Money,
    ReportProfile,
    ReportedType,
    ValuationVector,
    _as_int,
    cumulative_value,
    is_dummy,
)
from .removed_sets import (layer_removed_sets, min_valid_mu, potential_inviters,
                           removed_set_holding)
from .welfare import RankedMarginals, WelfarePool, WelfareResult, _check_problem


@dataclass(frozen=True)
class LayerRecord:
    """Diagnostic record of one processed LDM layer."""

    layer: int
    removed: frozenset[BuyerId]
    included: frozenset[BuyerId]
    sw: Money
    tentative_units: Mapping[BuyerId, int]
    tentative_value: Mapping[BuyerId, Money]
    sw_minus_d: Mapping[BuyerId, Money]
    k_remain_after: int


@dataclass(frozen=True)
class LdmTrace:
    mu: int
    k: int
    layers: tuple[LayerRecord, ...]
    market: Market


@dataclass(frozen=True)
class VcgTrace:
    sw: Money
    allocation: Mapping[BuyerId, int]
    sw_without: Mapping[BuyerId, Money]


@dataclass(frozen=True)
class DnaRow:
    buyer: BuyerId
    layer: int
    price: Money
    won: bool
    k_before: int


@dataclass(frozen=True)
class DnaTrace:
    rows: tuple[DnaRow, ...]


@dataclass(frozen=True)
class Outcome:
    """Final allocation and payments over the real valid buyers."""

    units: Mapping[BuyerId, int]
    payments: Mapping[BuyerId, Money]
    trace: object | None = None

    def units_of(self, i: BuyerId) -> int:
        return self.units.get(i, 0)

    def payment_of(self, i: BuyerId) -> Money:
        return self.payments.get(i, 0)

    @property
    def revenue(self) -> Money:
        return sum(self.payments.values())


def outcome_welfare(market: Market, outcome: Outcome) -> Money:
    """Total reported value of the allocated units."""
    return sum(
        cumulative_value(market.values_of(i), m) for i, m in outcome.units.items() if m
    )


def inject_dummies(profile: ReportProfile, r: int) -> ReportProfile:
    """Profile with a reserve price r: K dummies bidding (r, 0, ..., 0) in layer 1.

    r must be a non-negative integer, like every reported marginal value: a
    negative dummy bid would turn the winners' Clarke payments into rewards.
    """
    if not _as_int(r) or r < 0:
        raise ValidationError(None, f"reserve must be a non-negative integer, got {r!r}")
    vector = (r,) + (0,) * (profile.k - 1)
    reports = dict(profile.reports)
    neighbors = set(profile.seller_neighbors)
    for j in range(profile.k):
        ident = DUMMY_BASE + j
        reports[ident] = ReportedType(vector, frozenset())
        neighbors.add(ident)
    return replace(profile, reports=reports, seller_neighbors=frozenset(neighbors))


def run_vcg_first_layer(market: Market) -> Outcome:
    """Clarke-pivot auction of K units among the seller's direct neighbors only.

    Every other valid buyer gets 0 units and pays 0. Reserve dummies bid in
    layer 1 like any neighbor; units they win are withheld.
    """
    layer1 = market.layers[0] if market.layers else frozenset()
    pool = WelfarePool(market, layer1, {}, market.k)
    full = pool.best()
    units = {i: 0 for i in market.valid if not is_dummy(i)}
    payments = dict(units)
    sw_without: dict[BuyerId, Money] = {}
    for i in sorted(layer1):
        if is_dummy(i):
            continue
        pi = full.units_of(i)
        without = pool.welfare({i})
        sw_without[i] = without
        units[i] = pi
        payments[i] = without - (full.welfare - cumulative_value(market.values_of(i), pi))
    trace = VcgTrace(sw=full.welfare, allocation=full.allocation, sw_without=sw_without)
    return Outcome(units=units, payments=payments, trace=trace)


def run_dna_mu(market: Market) -> Outcome:
    """DNA-MU: sequential unit-demand allocation, nearer layers first.

    Each buyer is priced at the K'-th highest first-unit value of the market
    with her subtree (`Market.subtree`), the winners so far, and herself
    removed, or 0 when fewer than K' buyers are left; she wins one unit at
    that price iff her own first-unit value meets it. Only first-unit values
    are read. They are sorted once per run, and each price is a walk down
    that list that skips the removed buyers. Once supply hits zero nothing
    more is sold, and no later buyer's subtree is walked. Buyers within a
    layer go in ascending id order.
    """
    if market.layers and any(is_dummy(i) for i in market.layers[0]):
        raise ContractError("dna-mu takes no reserve price")
    ranked = sorted(((market.first_unit(j), j) for j in market.valid), reverse=True)
    k_remaining = market.profile.k
    winners: set[BuyerId] = set()
    units = dict.fromkeys(market.valid, 0)
    payments = dict(units)
    rows: list[DnaRow] = []
    done = False
    for d, layer in enumerate(market.layers, start=1):
        if done:
            break
        for i in sorted(layer):
            if k_remaining == 0:
                done = True
                break
            skipped = market.subtree(i) | winners
            skipped.add(i)
            price = _kth_outside(ranked, skipped, k_remaining)
            won = market.first_unit(i) >= price
            rows.append(DnaRow(i, d, price, won, k_remaining))
            if won:
                units[i] = 1
                payments[i] = price
                winners.add(i)
                k_remaining -= 1
    return Outcome(units=units, payments=payments, trace=DnaTrace(tuple(rows)))


def _kth_outside(ranked: list[tuple[Money, BuyerId]], skipped: set[BuyerId], k: int) -> Money:
    """k-th value of `ranked`, descending (value, id) pairs, among the ids not
    skipped; 0 when fewer than k are left."""
    for value, j in ranked:
        if j not in skipped:
            k -= 1
            if not k:
                return value
    return 0


def _ldm_layer(market: Market, members: Iterable[BuyerId], included: frozenset[BuyerId],
               committed: dict[BuyerId, int]) -> tuple[WelfarePool, WelfareResult, int]:
    """One LDM layer: the welfare optimum over `included` = valid - R_l with
    the earlier layers frozen at `committed`, whose pool then answers every
    SW_{-D_i} of the layer. Commits each member's tentative units into
    `committed`; returns the pool, the optimum and the units the layer took.
    """
    pool = WelfarePool(market, included, committed, market.k)
    layer_opt = pool.best()
    taken = 0
    for j in members:
        committed[j] = won = layer_opt.units_of(j)
        taken += won
    return pool, layer_opt, taken


def _ldm_payment(market: Market, pool: WelfarePool, layer_opt: WelfareResult,
                 i: BuyerId) -> tuple[Money, Money]:
    """(SW_{-D_i}, p_i) for a member i of the layer: p_i = SW_{-D_i} - (SW_l - v_i(x_i))."""
    # valid - D_i = included - (C_i + {i}); committed buyers sit in earlier
    # layers, so none of them is ever left out
    sw_d = pool.welfare(market.children[i] | {i})
    won = layer_opt.units_of(i)
    value = cumulative_value(market.values_of(i), won) if won else 0
    return sw_d, sw_d - (layer_opt.welfare - value)


def run_ldm_tree(market: Market, mu: int | None,
                 order: Sequence[BuyerId] | None = None) -> Outcome:
    """Layer-based diffusion mechanism on the market's BFS tree.

    Per layer l: remove R_l, solve the constrained welfare optimum with all
    lower layers frozen at their committed units, commit each layer-l buyer's
    tentative units, and charge her the welfare difference against the economy
    without her subtree influence (D_i). Stops once all K units are committed,
    zeroing the deeper layers. Each layer sorts one welfare pool; every
    SW_{-D_i} of the layer is a walk over it.

    mu None runs at the smallest valid mu, `min_valid_mu(market)`. `order`
    optionally reorders the within-layer buyer loop (a testing hook; the
    outcome provably does not depend on it).
    """
    if mu is None:
        mu = min_valid_mu(market)
    valid = market.valid
    units = {i: 0 for i in valid if not is_dummy(i)}
    payments = dict(units)
    committed: dict[BuyerId, int] = {}
    k_remain = market.k
    records: list[LayerRecord] = []
    for l, r_l in enumerate(layer_removed_sets(market, mu), start=1):
        members = sorted(market.layers[l - 1])
        if order is not None:
            position = {b: p for p, b in enumerate(order)}
            members.sort(key=lambda b: position[b])
        included = valid - r_l
        pool, layer_opt, taken = _ldm_layer(market, members, included, committed)
        k_remain -= taken
        sw_d: dict[BuyerId, Money] = {}
        for i in members:
            sw_d[i], payment = _ldm_payment(market, pool, layer_opt, i)
            if not is_dummy(i):
                units[i] = layer_opt.units_of(i)
                payments[i] = payment
        records.append(LayerRecord(
            layer=l,
            removed=r_l,
            included=included,
            sw=layer_opt.welfare,
            tentative_units=dict(layer_opt.allocation),
            tentative_value={
                j: cumulative_value(market.values_of(j), m)
                for j, m in layer_opt.allocation.items()
            },
            sw_minus_d=sw_d,
            k_remain_after=k_remain,
        ))
        if k_remain == 0:
            break
    return Outcome(units=units, payments=payments,
                   trace=LdmTrace(mu, market.k, tuple(records), market))


# A buyer's (units, payment) as a function of her value report, all else fixed.
# LDM's also carries `menu`, every pair it can return (see `ldm_value_rerun`).
ValueRerun = Callable[[ValuationVector], tuple[int, Money]]


def _nothing_for_any_report() -> ValueRerun:
    """The rerun of a buyer who gets (0, 0) whatever she reports."""
    rerun = lambda v: (0, 0)
    rerun.menu = ((0, 0),)
    return rerun


def ldm_value_rerun(market: Market, mu: int | None, i: BuyerId) -> ValueRerun:
    """i's (units, payment) under `run_ldm_tree(market.with_values(i, v), mu)`,
    as a function of her value report v (mu None: the market's smallest valid
    mu, which no value report moves).

    With i in layer L and parent p, the only removed set that reads v is
    C^R_p, inside R_{L-1}, and i's units and payment are final once layer L
    is processed. Every v that puts i in C^R_p leaves the layers before L as
    they are; for any other v, at least K of her siblings outrank her in
    layer L, and the answer below is (0, 0) whatever those layers did (the
    argument is in notes/decisions.md). So mu is checked, the layers before
    L committed with i in C^R_p, and layer L's free pool sorted once, here.
    Per vector, i's units are her merged rank in that pool and her payment
    SW_{-D_i}, read off that pool once, minus a prefix sum: O(k log n), with
    no pool built and nothing sorted. If the layers before L sell every
    unit, i gets (0, 0) whatever she reports.

    The returned function's `menu` lists every (units, payment) it can
    return. Her units x never exceed the supply S left for layer L, and her
    payment reads v only through x: the menu is (x, SW_{-D_i} minus the
    others' first S - x marginals) for x in 0..S, or ((0, 0),) when a layer
    before L sells out or i is a dummy.
    """
    if mu is None:
        mu = min_valid_mu(market)
    layer = market.layer_of[i]
    removed = layer_removed_sets(market, mu)
    committed: dict[BuyerId, int] = {}
    k_remain = market.k
    for l, (members, r_l) in enumerate(zip(market.layers[:layer - 1], removed), start=1):
        if l == layer - 1:
            parent = next(j for j in members if i in market.children[j])
            # the parent's children are in R_{L-1} only through her C^R
            r_l = (r_l - market.children[parent]) | removed_set_holding(
                market, parent, potential_inviters(market, parent), mu, i)
        k_remain -= _ldm_layer(market, members, market.valid - r_l, committed)[2]
        if k_remain == 0:
            return _nothing_for_any_report()
    included = market.valid - next(removed)
    _check_problem(market, included, committed, market.k)
    if is_dummy(i):
        return _nothing_for_any_report()
    others = RankedMarginals(market.profile.reports, included.difference(committed, (i,)))
    return _LayerRerun(i, others, others.top_without(market.children[i], k_remain), k_remain)


class _LayerRerun:
    """`ldm_value_rerun` once the layers before i's are committed: layer L's
    pool without i (`others`), SW_{-D_i} and the supply S left for layer L.
    The menu is built only when read: the invitation checks never read it."""

    def __init__(self, i: BuyerId, others: RankedMarginals, sw_d: Money, supply: int):
        self._i, self._others, self._sw_d, self._supply = i, others, sw_d, supply

    def __call__(self, v: ValuationVector) -> tuple[int, Money]:
        units = self._others.units_of(self._i, v, self._supply)
        # p_i = SW_{-D_i} - (SW_L - v_i(units)); the committed buyers' welfare cancels
        return units, self._sw_d - self._others.top(self._supply - units)

    @property
    def menu(self) -> tuple[tuple[int, Money], ...]:
        top, sw_d, supply = self._others.top, self._sw_d, self._supply
        return tuple((x, sw_d - top(supply - x)) for x in range(supply + 1))


def run_ldm(market: Market, mu: int | None) -> Outcome:
    """LDM on general graphs: LDM-Tree on the market's BFS tree (mu None: at
    the tree's smallest valid mu)."""
    return run_ldm_tree(market, mu)
