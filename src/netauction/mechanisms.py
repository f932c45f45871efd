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

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
from .removed_sets import layer_free_sets, removed_set_of
from .welfare import WelfarePool, WelfareResult

# (units, payment) pairs. A menu bounds a family of one buyer's reports when
# every outcome (x, p) they reach has an entry (x, p') with p' <= p: then no
# report of the family beats a utility that no entry beats (`verify._certifies`).
Menu = tuple[tuple[int, Money], ...]


@dataclass(frozen=True)
class LayerRecord:
    """Diagnostic record of one processed LDM layer."""

    layer: int
    sw: Money
    tentative_units: Mapping[BuyerId, int]
    tentative_value: Mapping[BuyerId, Money]
    sw_minus_d: Mapping[BuyerId, Money]
    k_remain_after: int


@dataclass(frozen=True)
class LdmTrace:
    """A run's layer records on `market` at `mu`, and, for the reads of the
    run (`ldm_run_value_rerun`, `ldm_run_peer_outcomes`), each processed
    layer's free set and welfare pool."""

    mu: int
    layers: tuple[LayerRecord, ...]
    market: Market
    pools: tuple[tuple[frozenset[BuyerId], WelfarePool], ...] = field(
        default=(), compare=False, repr=False)


class DnaRow(NamedTuple):
    """One buyer a DNA-MU run processed: her price, whether she won at it,
    the supply before her, and x_K, the floor of her invitation menu (see
    `dna_mu_invitation_menu`)."""

    buyer: BuyerId
    layer: int
    price: Money
    won: bool
    k_before: int
    floor: Money


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
    layer 1 like any neighbor; units they win are withheld. The auction is
    LDM's layer loop over layer 1 alone, at mu 0: a buyer's children lie
    outside that pool, so SW_{-D_i} there is SW_{-i} and LDM's payment is
    the Clarke payment. The trace is that one layer's `LdmTrace`.
    """
    return _ldm_layers(market, 0, market.layers[:1])


def run_dna_mu(market: Market) -> Outcome:
    """DNA-MU: sequential unit-demand allocation, nearer layers first.

    Each buyer is priced at the K'-th highest first-unit value of the market
    with her closed subtree (`_closed_subtree`: her subtree and herself) and
    the winners so far removed, or 0 when fewer than K' buyers are left; she
    wins one unit at that price iff her own first-unit value meets it. Only
    first-unit values are read, through `Market.ranked_first_units`, and the
    walk down that ranking that finds her price also finds her menu floor x_K,
    which her `DnaRow` records. Once supply hits zero nothing more is sold,
    and no later buyer's subtree is walked. Buyers within a layer go in
    ascending id order.
    """
    layers = market.layers
    if layers and is_dummy(max(layers[0])):
        raise ContractError("dna-mu takes no reserve price")
    ranked = market.ranked_first_units()
    layer_of = market.layer_of
    k = k_remaining = market.k
    winners: set[BuyerId] = set()
    units = dict.fromkeys(market.valid, 0)
    payments = dict(units)
    rows: list[DnaRow] = []
    for i in itertools.chain.from_iterable(map(sorted, layers)):
        if not k_remaining:
            break
        price, floor = _kth_outside(ranked, _closed_subtree(market, i), k, winners)
        won = market.first_unit(i) >= price
        rows.append(DnaRow(i, layer_of[i], price, won, k_remaining, floor))
        if won:
            units[i] = 1
            payments[i] = price
            winners.add(i)
            k_remaining -= 1
    return Outcome(units, payments, DnaTrace(tuple(rows)))


def dna_mu_invitation_menu(market: Market, outcome: Outcome) -> Callable[[BuyerId], Menu]:
    """i -> a menu bounding valid buyer i's true-value DNA-MU outcomes under
    every invitation report of hers, on any market: ((0, 0), (1, x_K)).
    `outcome` is `run_dna_mu(market)`.

    x_K is the K-th highest first unit of X_i = valid - subtree(i) - {i}
    (0 when |X_i| < K). Hiding invitations deletes edges out of i only, so
    every buyer outside subtree(i) keeps her layer and parent: the buyers
    before i stay as they are, X_i stays outside her new subtree, and her
    price is the (K - |W|)-th highest first unit of a superset of X_i - W,
    W the winners before her: never below x_K. She wins at most one unit,
    so every report ends in (0, 0) or (1, p) with p >= x_K. The argument is
    in notes/decisions.md. The run's own walk found x_K for every buyer it
    processed (`DnaRow.floor`); a buyer it never reached has her closed
    subtree walked here, once, and the run's ranking of the market.
    """
    floors = {row.buyer: row.floor for row in outcome.trace.rows}

    def menu(i: BuyerId) -> Menu:
        floor = floors.get(i)
        if floor is None:
            floor = _kth_outside(market.ranked_first_units(), _closed_subtree(market, i),
                                 market.k)[1]
        return ((0, 0), (1, floor))

    return menu


def _closed_subtree(market: Market, i: BuyerId) -> set[BuyerId]:
    """i's subtree in the market's BFS tree, i included; an explicit stack,
    so any depth works, that takes each child set whole."""
    children = market.children
    closed = {i}
    if not children[i]:
        return closed
    stack = [i]
    while stack:
        below = children[stack.pop()]
        closed |= below
        stack += below
    return closed


def _kth_outside(ranked: list[tuple[Money, BuyerId]], closed: set[BuyerId], k: int,
                 winners: set[BuyerId] | frozenset[BuyerId] = frozenset()) -> tuple[Money, Money]:
    """(price, floor) in one walk down `ranked`, descending (value, id)
    pairs: the (k - |winners|)-th value among the ids in neither `closed`
    nor `winners`, and the k-th among the ids not in `closed`; each 0 when
    fewer are left. `winners` lie outside `closed`, so at the price at most
    k ids outside `closed` have been passed, and the floor comes no sooner."""
    left = k - len(winners)
    price = 0
    for value, j in ranked:
        if j in closed:
            continue
        if j not in winners:
            left -= 1
            if not left:
                price = value
        k -= 1
        if not k:
            return price, value
    return price, 0


def _sw_minus_d(market: Market, pool: WelfarePool, i: BuyerId,
                skipped: frozenset[BuyerId] = frozenset()) -> Money:
    """SW_{-D_i} over the free set F_l of i's layer, the pool's buyers less
    `skipped`, with or without i: valid - D_i is the frozen layers plus
    F_l - (C_i + {i})."""
    return pool.top_without(market.children[i] | {i} | skipped)


def _ldm_payment(market: Market, pool: WelfarePool, layer_opt: WelfareResult, i: BuyerId,
                 won: int, skipped: frozenset[BuyerId] = frozenset()) -> tuple[Money, Money]:
    """(SW_{-D_i}, p_i) for a member i of the layer, both welfares over its
    free buyers, the pool's less `skipped`: p_i = SW_{-D_i} - (SW_l - v_i(x_i)).
    `layer_opt` is `pool.best(skipped)` and `won` her units x_i in it; when
    no buyer of C_i + {i} holds a unit of it, the optimum without them is
    the same, and (SW_l, 0) needs no walk (notes/decisions.md)."""
    if not won and layer_opt.allocation.keys().isdisjoint(market.children[i]):
        return layer_opt.welfare, 0
    sw_d = _sw_minus_d(market, pool, i, skipped)
    value = cumulative_value(market.values_of(i), won) if won else 0
    return sw_d, sw_d - (layer_opt.welfare - value)


def run_ldm_tree(market: Market, mu: int,
                 order: Sequence[BuyerId] | None = None) -> Outcome:
    """Layer-based diffusion mechanism on the market's BFS tree.

    Per layer l: solve the welfare optimum of its free set F_l (valid - R_l
    less the lower layers, frozen at their committed units) with the supply
    they left, commit each layer-l buyer's tentative units, and charge her
    the welfare difference against the economy without her subtree
    influence (D_i). Stops once all K units are committed, zeroing the
    deeper layers. Each layer builds one welfare pool; SW_{-D_i} is a walk
    over it when a buyer of C_i + {i} holds a unit of the layer optimum,
    and SW_l otherwise.

    `order` optionally reorders each layer's buyer loop and must list its
    members (a testing hook; the outcome provably does not depend on it).
    """
    return _ldm_layers(market, mu, layer_free_sets(market, mu), order)


def _ldm_layers(market: Market, mu: int, free_sets: Iterable[frozenset[BuyerId]],
                order: Sequence[BuyerId] | None = None) -> Outcome:
    """LDM's layer loop over `free_sets`, F_1, F_2, ..., with mu the value
    its trace records. A layer's pool holds its free buyers only: every
    payment is a difference of two welfares over the frozen layers, where
    they cancel."""
    units = {i: 0 for i in market.valid if not is_dummy(i)}
    payments = dict(units)
    supply = market.k
    frozen: dict[BuyerId, int] = {}  # processed buyers holding units: at most K
    records: list[LayerRecord] = []
    pools: list[tuple[frozenset[BuyerId], WelfarePool]] = []
    position = None if order is None else {b: p for p, b in enumerate(order)}
    for l, free in enumerate(free_sets, start=1):
        members = sorted(market.layers[l - 1])
        if position is not None:
            if missing := [b for b in members if b not in position]:
                raise ContractError(f"order leaves out layer member {missing[0]}")
            members.sort(key=position.__getitem__)
        pool = WelfarePool(market, free, supply)
        layer_opt = pool.best()
        pools.append((free, pool))
        # the trace alone adds back the frozen layers' units and welfare
        tentative = frozen | layer_opt.allocation
        value = {j: cumulative_value(market.values_of(j), m) for j, m in tentative.items()}
        frozen_welfare = sum(value[j] for j in frozen)
        sw_d: dict[BuyerId, Money] = {}
        for i in members:
            won = layer_opt.units_of(i)
            supply -= won
            sw_d[i], payment = _ldm_payment(market, pool, layer_opt, i, won)
            sw_d[i] += frozen_welfare
            if not is_dummy(i):
                units[i] = won
                payments[i] = payment
        records.append(LayerRecord(
            layer=l,
            sw=frozen_welfare + layer_opt.welfare,
            tentative_units=tentative,
            tentative_value=value,
            sw_minus_d=sw_d,
            k_remain_after=supply,
        ))
        if supply == 0:
            break
        frozen = {j: m for j, m in tentative.items() if market.layer_of[j] <= l}
    return Outcome(units=units, payments=payments,
                   trace=LdmTrace(mu, tuple(records), market, tuple(pools)))


class ValueRerun(NamedTuple):
    """A buyer's (units, payment) as a function of her value report, all else
    fixed: `answer(v)`. `menu`, when known, holds every pair `answer` can
    return (see `ldm_value_rerun`); a black box has None."""

    answer: Callable[[ValuationVector], tuple[int, Money]]
    menu: Menu | None = None


# the rerun of a buyer who gets (0, 0) whatever she reports
_NOTHING = ValueRerun(lambda v: (0, 0), ((0, 0),))


def ldm_value_rerun(market: Market, mu: int, i: BuyerId) -> ValueRerun:
    """i's (units, payment) under `run_ldm_tree(market.with_values(i, v), mu)`,
    as a function of her value report v, with `menu`, every pair it can return.

    With i in layer L and parent p, the only removed set that reads v is
    C^R_p, inside W_{L-1}; i's units and payment are final once layer L is
    processed. Every v that puts i in C^R_p gives the same C^R_p, so the
    same layers before L; any other v gets (0, 0) (notes/decisions.md, "A
    value rerun is a read of one run"). So the rerun is read from one run
    at a bid above every first unit for each unit: it puts i in C^R_p,
    whose C^W quota K + mu - |C^P_p| is at least K; it takes every unit
    layer L has left, so the run stops there; and the read leaves her
    marginals out of every sum. A run sold out before layer L, or a dummy
    i, gives ((0, 0),). Its callers: a graph deviation that no run answers,
    and a buyer `ldm_run_value_rerun` refuses.
    """
    top = 1 + max(map(market.first_unit, market.valid))
    run = run_ldm_tree(market.with_values(i, (top,) * market.k), mu)
    return ldm_run_value_rerun(run.trace, i, market.children[i])


def ldm_run_value_rerun(trace: LdmTrace, i: BuyerId,
                        kept: frozenset[BuyerId]) -> ValueRerun | None:
    """`ldm_value_rerun(m, trace.mu, i)` read from the run that made
    `trace`, where m is the market of `trace.market`'s BFS tree with i
    inviting only S & C_i, S = `kept` any invitation report of hers and C_i
    her children. For her full report m is `trace.market`; on an own tree,
    where every valid buyer invites exactly her children, m is the market S
    makes. On a graph, a proper S can reattach an invitee she hides: then a
    run on S's market answers, through `ldm_value_rerun`. None for a buyer
    outside her parent's C^R, whose rerun must commit layer L - 1 anew:
    `ldm_value_rerun` reads hers from a run at a top bid.

    i sits in layer L with parent p. Her reports reach the layers before L
    only through C^R_p, in layer L - 1, and her invitations move only the
    buyers below layer L. When she is in C^R_p at the truth, not free in
    layer L - 1, the rerun's layers before L commit as the run's did,
    whatever she keeps: she stays in C^R_p, in C^P_p while she keeps a
    child, else in C^W_p at the rerun's top bid. So a run sold out before
    layer L gives (0, 0), and otherwise the run's layer-L pool, with the
    run's supply and without the marginals of the children that leave F_L
    (`_leaving`), is the rerun's. A layer-1 buyer always qualifies, and so
    does every buyer with children, who is in C^P_p, and every buyer of a
    run sold out before layer L - 1, whose F_{L-1} was never built. The
    read sorts nothing: two walks down about as many of the pool's first
    places as the supply layer L shared, and k binary searches per buyer
    left out (notes/decisions.md).
    """
    layer = trace.market.layer_of[i]
    pools = trace.pools
    if 1 < layer <= len(pools) + 1 and i in pools[layer - 2][0]:
        return None
    if len(pools) < layer or is_dummy(i):  # sold out before layer L
        return _NOTHING
    free, pool = pools[layer - 1]
    return _pool_rerun(trace.market, pool, i, _leaving(trace, i, kept, free))


def ldm_run_peer_outcomes(outcome: Outcome, j: BuyerId, kept: frozenset[BuyerId]) -> Outcome:
    """The outcomes of j's layer peers, the members of her layer L other
    than j, in `run_ldm_tree(m, mu)`, read from `outcome`, LDM's run on an
    own tree at mu, where m is its market with j inviting only `kept` of
    her children: `outcome` itself when the deletion moves no peer, else
    an outcome that lists only them.

    The layers before L - 1 commit as in the run: j's invitations move
    only the buyers below layer L. Layer L - 1 does too, unless j keeps no
    child: then she leaves C^P_p, p her parent, and the grown C^W_p quota
    either holds her, leaving C^R_p as it was, or takes the next-ranked
    childless child of p in her place, and layer L - 1 is solved again on
    its free set with that swap. Every marginal of j comes after the first
    unit of the child who takes her place, so a run that sold out at layer
    L - 1 sells out there too. Layer L's free set F_L loses only the
    children of j that leave it (`_leaving`): the run's layer-L pool
    without their marginals, or, after a new layer L - 1, a pool of F_L
    without them at the supply that layer left (notes/decisions.md).
    """
    trace = outcome.trace
    market, pools = trace.market, trace.pools
    layer = market.layer_of[j]
    if len(pools) < layer:  # sold out before layer L, here as in the run
        return outcome
    free, pool = pools[layer - 1]
    skipped = _leaving(trace, j, kept, free)
    supply = _swapped_supply(trace, j) if layer > 1 and not kept else None
    if supply is None:
        if not skipped:
            return outcome
    elif not supply:
        return Outcome({}, {})
    else:
        pool, skipped = WelfarePool(market, free - skipped, supply), frozenset()
    layer_opt = pool.best(skipped)
    units: dict[BuyerId, int] = {}
    payments: dict[BuyerId, Money] = {}
    for i in market.layers[layer - 1]:
        if i != j and not is_dummy(i):
            units[i] = won = layer_opt.units_of(i)
            payments[i] = _ldm_payment(market, pool, layer_opt, i, won, skipped)[1]
    return Outcome(units, payments)


def _swapped_supply(trace: LdmTrace, j: BuyerId) -> int | None:
    """The supply layer L - 1 leaves when j, in layer L >= 2, keeps no
    child: None when C^R_p, p her parent, still holds her, so that the
    layer is the run's; else the layer solved again on the run's free set
    with the quota's next-ranked childless child of p in her place."""
    market, pools = trace.market, trace.pools
    layer = market.layer_of[j]
    parent = next(q for q in market.layers[layer - 2] if j in market.children[q])
    siblings = market.children[parent]
    inviters = frozenset(c for c in siblings if market.children[c] and c != j)
    removed = removed_set_of(market, siblings, inviters, trace.mu)
    if j in removed:
        return None
    above, held = pools[layer - 2]
    layer_opt = WelfarePool(market, (above - removed) | {j}, held.budget).best()
    return held.budget - sum(map(layer_opt.units_of, market.layers[layer - 2]))


def _leaving(trace: LdmTrace, i: BuyerId, kept: frozenset[BuyerId],
             free: frozenset[BuyerId]) -> frozenset[BuyerId]:
    """X, the children of i in her layer's free set `free` of the run, F_L,
    that leave it when she invites only S = `kept` & C_i of them, `kept`
    any invitation report of hers: the hidden ones, and the kept ones her
    C^R under S now removes, X = (C_i & F_L) - (S - C^R_i(S)). Every other
    buyer of F_L stays: no other C^R of layer L reads her invitations.
    Empty when S is all of C_i."""
    market = trace.market
    kept = kept & market.children[i]
    inviters = frozenset(c for c in kept if market.children[c])
    return (market.children[i] & free) - (kept - removed_set_of(market, kept, inviters, trace.mu))


def _pool_rerun(market: Market, pool: WelfarePool, i: BuyerId,
                skipped: frozenset[BuyerId] = frozenset()) -> ValueRerun:
    """i's value rerun from her layer's free pool, in which she is a free
    buyer at her values in `market`, with the supply S the layers before
    hers left as its budget, and the buyers `skipped` left out. Her units x
    never exceed S, and her payment reads v only through x: the menu is
    (x, SW_{-D_i} minus the others' first S - x marginals) for x in 0..S,
    her own and the skipped marginals left out of those sums. A vector's
    answer is its entry at the x found by binary search in the pool, those
    pooled marginals left out of the count: O(k log n) with no pool built
    and nothing sorted. The skipped buyers are children of i, so SW_{-D_i}
    leaves them out anyway."""
    supply = pool.budget
    sw_d = _sw_minus_d(market, pool, i)
    left_out = skipped | {i}
    others = pool.tops_without(left_out)
    # p_i = SW_{-D_i} - (SW_L - v_i(x)), over layer L's free buyers
    menu = tuple((x, sw_d - others[supply - x]) for x in range(supply + 1))
    places = sorted(p for j in left_out for p in pool.places_of(j, market.values_of(j)))
    return ValueRerun(lambda v: menu[pool.units_of(i, v, places)], menu)


def run_ldm(market: Market, mu: int) -> Outcome:
    """LDM on general graphs: LDM-Tree on the market's BFS tree."""
    return run_ldm_tree(market, mu)
