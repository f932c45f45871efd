"""Executable properties: IR/IC deviation enumeration, axiom checks,
dominance comparisons, the payment decomposition, child monotonicity, and
randomized counterexample search.

Checkers treat a mechanism as a black box over computed markets
(`MechanismUnderTest`). An invitation deviation builds its own market, so
buyers it disconnects correctly earn zero; a value misreport goes through
the mechanism's `value_rerun` hook, by default `run` on
`Market.with_values`, which must agree with `run` exactly. Utilities are
always evaluated against the buyer's TRUE values from the untouched
instance. The checks of one `run_properties` call share one truthful
instance (`_Truthful`): its market, truthful outcome and invitation table,
and one deviation per (valid buyer, invitation subset). For a mechanism
with its own value rerun (LDM) that is the rerun on the deviated market,
whose answer at the true values is both the invitation table's entry and
value-IC's baseline; a black box's one run on that market serves both.

LDM's value-IC is certified per (buyer, invitation subset): its value rerun
lists the outcome menu, every (units, payment) any report can get, and a
pair where no menu entry beats the truthful report has no profitable
misreport at any granularity. Every other check, and value-IC of a pair the
menu does not certify or of a mechanism without a menu, is falsification
only: an empty report list means no violation was found at the enumerated
granularity, not a proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ContractError, SearchBudgetExceeded, TraceMissing
from .market import (
    BuyerId,
    Market,
    Money,
    ReportProfile,
    ReportedType,
    ValuationVector,
    compute_market,
    cumulative_value,
    is_dummy,
)
from .mechanisms import (
    LdmTrace,
    Outcome,
    ValueRerun,
    ldm_value_rerun,
    outcome_welfare,
    run_dna_mu,
    run_ldm,
    run_ldm_tree,
    run_vcg_first_layer,
)
from .removed_sets import robust_mu

MAX_INVITES_EXHAUSTIVE = 6
DEFAULT_GRID_CAP = 128


@dataclass(frozen=True)
class MechanismUnderTest:
    """A named mechanism as the CLI runs it and the checkers rerun it.

    `run` maps a computed market to the outcome; `market.profile` keeps the
    raw reports for a mechanism that needs them. `value_rerun(market, i)`
    returns a function from a value vector v to i's (units, payment) under
    `run(market.with_values(i, v))`, which is also what it does when left
    out. A `menu` attribute on that function, listing every pair it can
    return, lets `check_value_ic` certify instead of enumerate. A mechanism
    with its own `value_rerun` has every invitation deviation read from it
    at the buyer's true values (`own_rerun`).
    """

    name: str
    run: Callable[[Market], Outcome]
    value_rerun: Callable[[Market, BuyerId], ValueRerun] | None = None

    def __post_init__(self):
        if self.value_rerun is None:
            object.__setattr__(self, "value_rerun", partial(_with_values_rerun, self.run))

    @property
    def own_rerun(self) -> bool:
        """Whether `value_rerun` is the mechanism's own. The generic one runs
        `run` whole for each report, so at the true values it is no cheaper
        than `run` on the deviated market, which the harness calls instead."""
        return getattr(self.value_rerun, "func", None) is not _with_values_rerun


def _with_values_rerun(run: Callable[[Market], Outcome], market: Market,
                       i: BuyerId) -> ValueRerun:
    """The generic value rerun: the whole of `run` on each patched market."""

    def rerun(v: ValuationVector) -> tuple[int, Money]:
        outcome = run(market.with_values(i, v))
        return outcome.units_of(i), outcome.payment_of(i)

    return rerun


# The only definition of each mechanism. The lambdas look the run functions
# up by name when called, so wrappers installed on this module (such as
# tracing spans) see every run.
def ldm_mechanism(mu: int | None = None) -> MechanismUnderTest:
    """LDM at `mu`; None runs it at each market's smallest valid mu."""
    return MechanismUnderTest("ldm", lambda market: run_ldm(market, mu),
                              lambda market, i: ldm_value_rerun(market, mu, i))


def dna_mu_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest("dna-mu", lambda market: run_dna_mu(market))


def vcg_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest("vcg-l1", lambda market: run_vcg_first_layer(market))


@dataclass(frozen=True)
class RegisteredMechanism:
    """One mechanism name shared by the CLI and the property harness.

    A `layered` mechanism takes mu and admits the LDM-only properties; the
    others ignore mu. `checked(mu)` is the mechanism, a layered one at mu,
    None meaning its smallest valid mu on each market (a reserve price is
    already in the market, see `inject_dummies`).
    """

    layered: bool
    checked: Callable[[int | None], MechanismUnderTest]

    def pinned_mu(self, instance: ReportProfile, mu: int | None = None) -> int:
        """mu for the checkers: `mu`, else the instance's, else `robust_mu`.

        Deviation re-runs need a mu that stays valid on every shrunken
        profile; the reattachment-robust bound provides that default.
        Unlayered mechanisms get 0.
        """
        if not self.layered:
            return 0
        if mu is not None:
            return mu
        if instance.mu is not None:
            return instance.mu
        return robust_mu(instance)

    def admits(self, prop: str) -> bool:
        """Whether the named property applies: the LDM-only ones (see
        `PROPERTIES`) need a layered mechanism."""
        return self.layered or not PROPERTIES[prop][1]


_LDM = RegisteredMechanism(True, ldm_mechanism)
MECHANISMS: dict[str, RegisteredMechanism] = {
    "vcg-l1": RegisteredMechanism(False, lambda mu: vcg_mechanism()),
    "dna-mu": RegisteredMechanism(False, lambda mu: dna_mu_mechanism()),
    # An alias of "ldm": run_ldm already runs LDM-Tree on the BFS tree, and a
    # tree is its own BFS tree.
    "ldm-tree": _LDM,
    "ldm": _LDM,
}


@dataclass(frozen=True)
class DeviationReport:
    """A found violation, replayable from the embedded instance.

    For "ir", "invitation-ic" and "value-ic" the reports are the buyer's own
    (deviating invitations only ever shrink). For "child-monotonicity" the
    reports belong to the same-layer buyer whose child set grew while `buyer`
    gained utility.
    """

    buyer: BuyerId
    truthful_report: ReportedType
    deviating_report: ReportedType
    truthful_utility: Money
    deviating_utility: Money
    mechanism: str
    instance: ReportProfile
    kind: str

    def sort_key(self):
        return (
            self.buyer,
            self.kind,
            tuple(sorted(self.deviating_report.invited)),
            self.deviating_report.values,
        )


def utility_of(truthful: ReportProfile, buyer: BuyerId, outcome: Outcome) -> Money:
    """True-value utility of `buyer` under `outcome`."""
    gained = cumulative_value(truthful.reports[buyer].values, outcome.units_of(buyer))
    return gained - outcome.payment_of(buyer)


def _subsets(invited: frozenset[BuyerId], proper_only: bool = False):
    if len(invited) > MAX_INVITES_EXHAUSTIVE:
        raise SearchBudgetExceeded(
            f"{len(invited)} invites exceed the exhaustive bound {MAX_INVITES_EXHAUSTIVE}"
        )
    elems = sorted(invited)
    top = len(elems) if proper_only else len(elems) + 1
    for r in range(top):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def _shrunk_invitations(mechanism: MechanismUnderTest, profile: ReportProfile, j: BuyerId):
    """(report, outcome) for every proper subset of j's invitations, her values kept."""
    rep = profile.reports[j]
    for sub in _subsets(rep.invited, proper_only=True):
        reduced = ReportedType(rep.values, sub)
        yield reduced, mechanism.run(compute_market(profile.with_report(j, reduced)))


class _Deviation(NamedTuple):
    """One (valid buyer, invitation subset) of a `_Truthful`: the
    mechanism's own value rerun on the deviated market (None for a black
    box, see `MechanismUnderTest.own_rerun`) and her (units, payment) there
    at her true values."""

    rerun: ValueRerun | None
    units: int
    payment: Money


# Each valid buyer with her true-value utility under every report of her
# invitations, the full report first.
InvitationUtilities = list[tuple[BuyerId, list[tuple[ReportedType, Money]]]]


class _Truthful:
    """An instance as its checks share it: its market, the mechanism's
    truthful outcome, first-layer VCG's, the invitation table and one
    `_Deviation` per (valid buyer, invitation subset), each computed once,
    on first use. The invitation table and value-IC read the same
    deviations, so each (buyer, subset) is run, or rerun, once.
    `run_properties` passes one to every check; a checker called on its own
    builds its own."""

    def __init__(self, mechanism: MechanismUnderTest, instance: ReportProfile):
        self.mechanism = mechanism
        self.instance = instance
        self._deviations: dict[tuple[BuyerId, frozenset[BuyerId]], _Deviation] = {}

    @cached_property
    def market(self) -> Market:
        return compute_market(self.instance)

    @cached_property
    def outcome(self) -> Outcome:
        return self.mechanism.run(self.market)

    @cached_property
    def vcg(self) -> Outcome:
        return run_vcg_first_layer(self.market)

    def deviated_market(self, i: BuyerId, invited: frozenset[BuyerId]) -> Market:
        """The market with valid buyer i inviting `invited`, her values kept:
        the truthful market for her full set."""
        truthful = self.instance.reports[i]
        if invited == truthful.invited:
            return self.market
        return compute_market(self.instance.with_report(i, ReportedType(truthful.values, invited)))

    def deviation(self, i: BuyerId, invited: frozenset[BuyerId]) -> _Deviation:
        """i's `_Deviation` for `invited`. A mechanism with its own rerun
        answers through it: `value_rerun(market, i)(v)` is her result under
        `run(market.with_values(i, v))`, which at her true values is
        `run(market)`. A black box runs on the market, or for the full set
        reuses the truthful outcome; its market is not kept."""
        key = (i, invited)
        found = self._deviations.get(key)
        if found is not None:
            return found
        market = self.deviated_market(i, invited)
        if self.mechanism.own_rerun:
            rerun = self.mechanism.value_rerun(market, i)
            found = _Deviation(rerun, *rerun(self.instance.reports[i].values))
        else:
            outcome = self.outcome if market is self.market else self.mechanism.run(market)
            found = _Deviation(None, outcome.units_of(i), outcome.payment_of(i))
        self._deviations[key] = found
        return found

    @cached_property
    def invitation_utilities(self) -> InvitationUtilities:
        """What `check_ir` and `check_invitation_ic` scan: the truthful
        outcome, reused for every buyer, and one deviation per proper
        invitation subset."""
        instance, full = self.instance, self.outcome
        table: InvitationUtilities = []
        for i in sorted(self.market.valid):
            truthful = instance.reports[i]
            scanned = [(truthful, utility_of(instance, i, full))]
            for sub in _subsets(truthful.invited, proper_only=True):
                dev = self.deviation(i, sub)
                scanned.append((ReportedType(truthful.values, sub),
                                cumulative_value(truthful.values, dev.units) - dev.payment))
            table.append((i, scanned))
        return table


def _own_deviations(truth: _Truthful, kind: str,
                    violates: Callable[[Money, Money], bool]) -> list[DeviationReport]:
    """Every invitation report whose utility u has `violates(u, u_full)`."""
    violations: list[DeviationReport] = []
    for i, scanned in truth.invitation_utilities:
        truthful, u_full = scanned[0]
        for report, u in scanned:
            if violates(u, u_full):
                violations.append(DeviationReport(
                    buyer=i,
                    truthful_report=truthful,
                    deviating_report=report,
                    truthful_utility=u_full,
                    deviating_utility=u,
                    mechanism=truth.mechanism.name,
                    instance=truth.instance,
                    kind=kind,
                ))
    return sorted(violations, key=DeviationReport.sort_key)


def check_ir(mechanism: MechanismUnderTest, instance: ReportProfile, *,
             truth: _Truthful | None = None) -> list[DeviationReport]:
    """Truthful values, every invitation subset: utility must be >= 0.

    Returned reports have deviating_utility < 0; truthful_utility is the
    full-invitation utility for context. `truth`, here and in the other
    deviation checkers, is the shared `_Truthful` of `mechanism` on
    `instance`; left out, the checker builds its own.
    """
    return _own_deviations(truth or _Truthful(mechanism, instance), "ir",
                           lambda u, u_full: u < 0)


def check_invitation_ic(mechanism: MechanismUnderTest, instance: ReportProfile, *,
                        truth: _Truthful | None = None) -> list[DeviationReport]:
    """Truthful values: full invitation must dominate every proper subset."""
    return _own_deviations(truth or _Truthful(mechanism, instance), "invitation-ic",
                           lambda u, u_full: u > u_full)


def _grid_vector(r: int, v_cap: int, k: int) -> ValuationVector:
    """Vector r (from 0) of `combinations_with_replacement(range(v_cap, -1, -1), k)`.

    Entries are fixed left to right. Of the C(top + s, s) vectors of s
    entries at most `top`, the C(w + s, s) whose first entry is at most w
    come last, so vector r starts with the smallest w for which that tail
    still reaches back to r.
    """
    vector = []
    top = v_cap
    for s in range(k, 0, -1):
        remaining = comb(top + s, s) - r
        lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(mid + s, s) >= remaining:
                hi = mid
            else:
                lo = mid + 1
        r -= comb(top + s, s) - comb(lo + s, s)
        vector.append(lo)
        top = lo
    return tuple(vector)


def integer_value_grid(instance: ReportProfile, buyer: BuyerId,
                       cap: int = DEFAULT_GRID_CAP) -> list[ValuationVector]:
    """Non-increasing integer vectors over {0..v_cap}, v_cap = instance max + 2,
    in descending lexicographic order.

    When the full grid's C(v_cap + k, k) vectors exceed `cap`, a
    deterministic even stride keeps about `cap` of them, always including the
    all-zero vector; only the kept vectors are built. The stride is an
    under-approximation: it can falsify IC but never certify it. For LDM the
    grid is the fallback of `check_value_ic` where the outcome menu does not
    certify a (buyer, subset) pair, and the tests' oracle for that menu.
    """
    top = 0
    for rep in instance.reports.values():
        if rep.values and rep.values[0] > top:
            top = rep.values[0]
    return list(_strided_grid(top + 2, instance.k, cap))


@lru_cache(maxsize=256)
def _strided_grid(v_cap: int, k: int, cap: int) -> tuple[ValuationVector, ...]:
    """`integer_value_grid`'s vectors; the grid does not depend on the buyer,
    so every buyer of an instance shares one."""
    size = comb(v_cap + k, k)
    stride = -(-size // cap)
    picked = [_grid_vector(r, v_cap, k) for r in range(0, size, stride)]
    zero = (0,) * k
    if picked[-1] != zero:
        picked.append(zero)
    return tuple(picked)


def check_value_ic(mechanism: MechanismUnderTest, instance: ReportProfile,
                   grid: Callable[[ReportProfile, BuyerId], Iterable[ValuationVector]] | None = None,
                   *, truth: _Truthful | None = None) -> list[DeviationReport]:
    """For every buyer, invitation subset, and grid misreport: reporting true
    values must dominate the misreport at that same invitation set. Each
    (buyer, subset) gets one `mechanism.value_rerun`; the truthful report's
    utility there, and for LDM the rerun itself, come from the deviation the
    invitation checks share (`_Truthful.deviation`).

    A rerun with a `menu`, every (units, payment) it can return, certifies
    the pair when no menu entry gives more true-value utility than the
    truthful report: then no report of any size does. Otherwise the rerun is
    asked for every grid vector, and the buyer's grid is built on first need.

    Combined with check_invitation_ic this covers joint (value, invitation)
    deviations through the dominance chain full-truth >= (v, r-hat) >= (v-hat, r-hat).
    """
    if grid is None:
        grid = integer_value_grid
    violations: list[DeviationReport] = []
    truth = truth or _Truthful(mechanism, instance)
    for i in sorted(truth.market.valid):
        rep = instance.reports[i]
        gained = [0, *accumulate(rep.values)]
        vectors = None
        for sub in _subsets(rep.invited):
            dev = truth.deviation(i, sub)
            rerun = dev.rerun or mechanism.value_rerun(truth.deviated_market(i, sub), i)
            u_base = cumulative_value(rep.values, dev.units) - dev.payment
            menu = getattr(rerun, "menu", None)
            if menu is not None and all(gained[x] - p <= u_base for x, p in menu):
                continue
            if vectors is None:
                vectors = [v for v in grid(instance, i) if v != rep.values]
            for v in vectors:
                units, payment = rerun(v)
                u_dev = cumulative_value(rep.values, units) - payment
                if u_dev > u_base:
                    violations.append(DeviationReport(
                        buyer=i,
                        truthful_report=ReportedType(rep.values, sub),
                        deviating_report=ReportedType(v, sub),
                        truthful_utility=u_base,
                        deviating_utility=u_dev,
                        mechanism=mechanism.name,
                        instance=instance,
                        kind="value-ic",
                    ))
    return sorted(violations, key=DeviationReport.sort_key)


def check_non_wasteful(outcome: Outcome, market: Market) -> bool:
    """All K units placed whenever `market` has a valid buyer (no-reserve
    runs only)."""
    return sum(outcome.units.values()) == (market.k if market.valid else 0)


@dataclass(frozen=True)
class VcgComparison:
    ldm_welfare: Money
    vcg_welfare: Money
    ldm_revenue: Money
    vcg_revenue: Money

    @property
    def welfare_dominates(self) -> bool:
        return self.ldm_welfare >= self.vcg_welfare

    @property
    def revenue_dominates(self) -> bool:
        return self.ldm_revenue >= self.vcg_revenue


def compare_vs_vcg(market: Market, mu: int | None) -> VcgComparison:
    """LDM (mu None: at its smallest valid mu) and first-layer VCG on the same
    market, and so the same reserve."""
    return _comparison(market, run_ldm(market, mu), run_vcg_first_layer(market))


def _comparison(market: Market, ldm: Outcome, vcg: Outcome) -> VcgComparison:
    return VcgComparison(
        ldm_welfare=outcome_welfare(market, ldm),
        vcg_welfare=outcome_welfare(market, vcg),
        ldm_revenue=ldm.revenue,
        vcg_revenue=vcg.revenue,
    )


@dataclass(frozen=True)
class DecompositionRow:
    """Appendix split of one LDM payment: p = q - t.

    m counts the buyer's own tentative units plus her children's; t is the
    children's tentative value (the resale credit); q is the charge term.
    """

    buyer: BuyerId
    layer: int
    m: int
    q: Money
    t: Money
    p: Money


def payment_decomposition(outcome: Outcome, mu: int) -> list[DecompositionRow]:
    """Decompose every processed real buyer's payment and assert p = q - t.

    The child sets are those of the traced run's market."""
    trace = outcome.trace
    if not isinstance(trace, LdmTrace):
        raise TraceMissing("outcome carries no LDM trace")
    if mu != trace.mu:
        raise ContractError(f"mu={mu} does not match the traced run (mu={trace.mu})")
    rows: list[DecompositionRow] = []
    for rec in trace.layers:
        total = sum(rec.tentative_value.values())
        for i in sorted(rec.sw_minus_d):
            if is_dummy(i):
                continue
            children = trace.market.children[i]
            own_units = rec.tentative_units.get(i, 0)
            own_value = rec.tentative_value.get(i, 0)
            m = own_units + sum(rec.tentative_units.get(j, 0) for j in children)
            t = sum(rec.tentative_value.get(j, 0) for j in children)
            q = rec.sw_minus_d[i] - (total - t - own_value)
            p = outcome.payment_of(i)
            if p != q - t:
                raise ContractError(
                    f"decomposition identity failed for buyer {i}: p={p}, q-t={q - t}"
                )
            rows.append(DecompositionRow(buyer=i, layer=rec.layer, m=m, q=q, t=t, p=p))
    return rows


def check_decomposition_inequalities(rows: Sequence[DecompositionRow],
                                     vcg_outcome: Outcome) -> tuple[bool, bool]:
    """(sum of layer-1 q >= VCG revenue, per-layer sum q_l >= sum t_{l-1})."""
    by_layer: dict[int, list[DecompositionRow]] = {}
    for row in rows:
        by_layer.setdefault(row.layer, []).append(row)
    if not by_layer:
        return (vcg_outcome.revenue <= 0, True)
    first = sum(r.q for r in by_layer.get(1, ())) >= vcg_outcome.revenue
    second = True
    for layer in sorted(by_layer):
        if layer < 2:
            continue
        q_sum = sum(r.q for r in by_layer[layer])
        t_prev = sum(r.t for r in by_layer.get(layer - 1, ()))
        if q_sum < t_prev:
            second = False
    return (first, second)


def _tree_profile(instance: ReportProfile, tree: Market) -> ReportProfile:
    """The instance with invitations replaced by the child sets of its
    market `tree`."""
    reports = dict(instance.reports)
    for i in tree.valid:
        reports[i] = ReportedType(instance.reports[i].values, tree.children[i])
    return ReportProfile(
        k=instance.k,
        seller_neighbors=instance.seller_neighbors,
        reports=reports,
        mu=instance.mu,
        labels=instance.labels,
    )


def check_child_monotonicity(mechanism: MechanismUnderTest, instance: ReportProfile,
                             *, truth: _Truthful | None = None) -> list[DeviationReport]:
    """No same-layer buyer may gain utility from another buyer's extra children.

    Works on the instance's BFS tree: for each buyer j with children and each
    proper child subset, deleting the other subtrees must leave every
    same-layer observer's utility at least as high as under the full set.
    """
    tree = (truth or _Truthful(mechanism, instance)).market
    base_profile = _tree_profile(instance, tree)
    full = mechanism.run(compute_market(base_profile))
    violations: list[DeviationReport] = []
    for j in sorted(tree.valid):
        if not tree.children[j]:
            continue
        layer = tree.layer_of[j]
        observers = [i for i in sorted(tree.layers[layer - 1]) if i != j]
        if not observers:
            continue
        full_rep = base_profile.reports[j]
        for reduced, out in _shrunk_invitations(mechanism, base_profile, j):
            for i in observers:
                u_reduced = utility_of(base_profile, i, out)
                u_full = utility_of(base_profile, i, full)
                if u_reduced < u_full:
                    violations.append(DeviationReport(
                        buyer=i,
                        truthful_report=reduced,
                        deviating_report=full_rep,
                        truthful_utility=u_reduced,
                        deviating_utility=u_full,
                        mechanism=mechanism.name,
                        instance=instance,
                        kind="child-monotonicity",
                    ))
    return sorted(violations, key=DeviationReport.sort_key)


def search_counterexample(
    mechanism: MechanismUnderTest | Callable[[ReportProfile], MechanismUnderTest],
    generator: Iterable[ReportProfile],
    budget: int,
    include_value_ic: bool = False,
) -> tuple[int, DeviationReport] | None:
    """Scan generated instances for an invitation-IC violation, then, with
    `include_value_ic`, for a value-IC one.

    `mechanism` is either fixed or a factory called per instance (so LDM runs
    can pin mu from each truthful network). Returns the stream index and the
    first violation found within `budget` instances, or None; absence is a
    legal result.
    """
    for index, instance in enumerate(itertools.islice(generator, budget)):
        mech = mechanism if isinstance(mechanism, MechanismUnderTest) else mechanism(instance)
        truth = _Truthful(mech, instance)
        found = check_invitation_ic(mech, instance, truth=truth)
        if not found and include_value_ic:
            found = check_value_ic(mech, instance, truth=truth)
        if found:
            return index, found[0]
    return None


@dataclass(frozen=True)
class PropertyResult:
    prop: str
    ok: bool
    detail: str = ""
    reports: tuple[DeviationReport, ...] = ()


def _deviations(check: Callable[..., list[DeviationReport]], truth: _Truthful) -> tuple:
    """A deviation checker's (ok, detail, reports) on the shared instance."""
    reports = check(truth.mechanism, truth.instance, truth=truth)
    return (not reports, "", tuple(reports))


def _non_wasteful(truth: _Truthful, mu: int) -> tuple:
    ok = check_non_wasteful(truth.outcome, truth.market)
    return (ok, "" if ok else "units unsold", ())


def _dominance(truth: _Truthful, mu: int) -> tuple:
    cmp = _comparison(truth.market, truth.outcome, truth.vcg)
    return (cmp.welfare_dominates and cmp.revenue_dominates,
            f"welfare {cmp.ldm_welfare} vs {cmp.vcg_welfare}, "
            f"revenue {cmp.ldm_revenue} vs {cmp.vcg_revenue}", ())


def _decomposition(truth: _Truthful, mu: int) -> tuple:
    try:
        rows = payment_decomposition(truth.outcome, mu)
    except ContractError as exc:
        return (False, str(exc), ())
    first, second = check_decomposition_inequalities(rows, truth.vcg)
    ok = first and second
    return (ok, "" if ok else f"layer-1 charge bound: {first}, cross-layer bound: {second}", ())


def _order_independence(truth: _Truthful, mu: int) -> tuple:
    """Three permutations of the within-layer buyer loop must leave LDM's
    truthful outcome as it is."""
    ids = sorted(truth.market.valid)
    rng = random.Random(f"order:{len(ids)}:{truth.market.k}")
    for _ in range(3):
        perm = ids[:]
        rng.shuffle(perm)
        out = run_ldm_tree(truth.market, mu, order=perm)
        if out.units != truth.outcome.units or out.payments != truth.outcome.payments:
            return (False, "order changed outcome", ())
    return (True, "", ())


# Property name -> (check, ldm_only). A check maps the shared truthful
# instance and the pinned mu to PropertyResult's (ok, detail, reports); the
# LDM-only ones read the truthful outcome as LDM's. Checkers are looked up by
# name when called, so wrappers installed on this module see every call.
PropertyCheck = Callable[[_Truthful, int], tuple]
PROPERTIES: dict[str, tuple[PropertyCheck, bool]] = {
    "ir": (lambda truth, mu: _deviations(check_ir, truth), False),
    "invite-ic": (lambda truth, mu: _deviations(check_invitation_ic, truth), False),
    "value-ic": (lambda truth, mu: _deviations(check_value_ic, truth), False),
    "non-wasteful": (_non_wasteful, False),
    "dominance": (_dominance, True),
    "decomposition": (_decomposition, True),
    "child-monotonicity": (lambda truth, mu: _deviations(check_child_monotonicity, truth),
                           False),
    "order-independence": (_order_independence, True),
}
PROPERTY_NAMES = tuple(PROPERTIES)


def run_properties(instance: ReportProfile, mechanism_name: str,
                   properties: Sequence[str], *, mu: int | None = None,
                   ) -> list[PropertyResult]:
    """Run the named property checks for one instance, in the given order.

    Properties marked `ldm_only` in `PROPERTIES` refuse unlayered mechanisms.
    The checks share one `_Truthful`: the instance's market is built once,
    and the truthful outcome and the invitation table that "ir" and
    "invite-ic" scan are computed by whichever check needs them first.
    """
    entry = MECHANISMS.get(mechanism_name)
    if entry is None:
        raise ContractError(f"unknown mechanism {mechanism_name!r}")
    pinned = entry.pinned_mu(instance, mu)
    truth = _Truthful(entry.checked(pinned), instance)
    results: list[PropertyResult] = []
    for prop in properties:
        if prop not in PROPERTIES:
            raise ContractError(f"unknown property {prop!r}")
        if not entry.admits(prop):
            raise ContractError(f"property {prop!r} requires the ldm mechanism")
        check = PROPERTIES[prop][0]
        results.append(PropertyResult(prop, *check(truth, pinned)))
    return results

