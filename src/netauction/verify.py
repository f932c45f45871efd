"""Executable properties: IR/IC deviation enumeration, axiom checks,
dominance comparisons, the payment decomposition, child monotonicity, and
randomized counterexample search.

Checkers treat a mechanism as a black box over report profiles; value
misreports go through its `value_rerun` hook, which must agree with `run`
exactly. Utilities are always evaluated against the buyer's TRUE values from
the untouched instance; the market is recomputed for every invitation
deviation, so buyers disconnected by a deviation correctly earn zero. Enumeration is falsification only: an empty
report list means no violation was found at the enumerated granularity, not a
proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from math import comb
from typing import Callable, Iterable, Sequence

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


def _rerun_profile(run: Callable[[ReportProfile], Outcome], profile: ReportProfile,
                   i: BuyerId) -> ValueRerun:
    """The generic value rerun: the whole of `run` on each patched profile."""
    invited = profile.reports[i].invited

    def rerun(v: ValuationVector) -> tuple[int, Money]:
        outcome = run(profile.with_report(i, ReportedType(v, invited)))
        return outcome.units_of(i), outcome.payment_of(i)

    return rerun


@dataclass(frozen=True)
class MechanismUnderTest:
    """A named mechanism and its value-rerun hook.

    `run` is the full pipeline from a report profile. `value_rerun(profile,
    i)` returns a function from a value vector v to i's (units, payment) when
    she reports v with her invitations in `profile`; it must agree with
    `run` exactly. Left out, it reruns `run` on each patched profile.
    """

    name: str
    run: Callable[[ReportProfile], Outcome]
    value_rerun: Callable[[ReportProfile, BuyerId], ValueRerun] | None = None

    def __post_init__(self):
        if self.value_rerun is None:
            object.__setattr__(self, "value_rerun", partial(_rerun_profile, self.run))


def ldm_mechanism(mu: int) -> MechanismUnderTest:
    def run(profile: ReportProfile) -> Outcome:
        return run_ldm(compute_market(profile), mu)

    def value_rerun(profile: ReportProfile, i: BuyerId) -> ValueRerun:
        return ldm_value_rerun(compute_market(profile), mu, i)

    return MechanismUnderTest("ldm", run, value_rerun)


def dna_mu_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest(
        "dna-mu", lambda profile: run_dna_mu(compute_market(profile)))


def vcg_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest(
        "vcg-l1", lambda profile: run_vcg_first_layer(compute_market(profile)))


@dataclass(frozen=True)
class RegisteredMechanism:
    """One mechanism name shared by the CLI and the property harness.

    A `layered` mechanism takes mu and admits the LDM-only properties; the
    others ignore mu. `run` applies the mechanism to a computed market with
    mu, None running a layered one at its smallest valid mu (a reserve price
    is already in the market, see `inject_dummies`);
    `checked` builds the black box that the checkers rerun.
    """

    layered: bool
    run: Callable[[Market, int | None], Outcome]
    checked: Callable[[int], MechanismUnderTest]

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


# The lambdas look the mechanisms up by name when called, so wrappers
# installed on this module (such as tracing spans) see every run.
_LDM = RegisteredMechanism(True, lambda market, mu: run_ldm(market, mu), ldm_mechanism)
MECHANISMS: dict[str, RegisteredMechanism] = {
    "vcg-l1": RegisteredMechanism(False, lambda market, mu: run_vcg_first_layer(market),
                                  lambda mu: vcg_mechanism()),
    "dna-mu": RegisteredMechanism(False, lambda market, mu: run_dna_mu(market),
                                  lambda mu: dna_mu_mechanism()),
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
        yield reduced, mechanism.run(profile.with_report(j, reduced))


# Each valid buyer with her true-value utility under every report of her
# invitations, the full report first.
InvitationUtilities = list[tuple[BuyerId, list[tuple[ReportedType, Money]]]]


def _invitation_utilities(mechanism: MechanismUnderTest,
                         instance: ReportProfile) -> InvitationUtilities:
    """What `check_ir` and `check_invitation_ic` scan: one run of the full
    report, reused for every buyer, and one per proper invitation subset."""
    table: InvitationUtilities = []
    full = mechanism.run(instance)
    for i in sorted(compute_market(instance).valid):
        truthful = instance.reports[i]
        scanned = [(truthful, utility_of(instance, i, full))]
        if truthful.invited:  # no invitations: the full report is the only one
            scanned += ((report, utility_of(instance, i, outcome))
                        for report, outcome in _shrunk_invitations(mechanism, instance, i))
        table.append((i, scanned))
    return table


def _own_deviations(mechanism: MechanismUnderTest, instance: ReportProfile, kind: str,
                    violates: Callable[[Money, Money], bool],
                    utilities: Callable[[], InvitationUtilities] | None,
                    ) -> list[DeviationReport]:
    """Every invitation report whose utility u has `violates(u, u_full)`.

    `utilities` returns `_invitation_utilities(mechanism, instance)`;
    `run_properties` passes one that computes it once for both checks.
    """
    table = utilities() if utilities else _invitation_utilities(mechanism, instance)
    violations: list[DeviationReport] = []
    for i, scanned in table:
        truthful, u_full = scanned[0]
        for report, u in scanned:
            if violates(u, u_full):
                violations.append(DeviationReport(
                    buyer=i,
                    truthful_report=truthful,
                    deviating_report=report,
                    truthful_utility=u_full,
                    deviating_utility=u,
                    mechanism=mechanism.name,
                    instance=instance,
                    kind=kind,
                ))
    return sorted(violations, key=DeviationReport.sort_key)


def check_ir(mechanism: MechanismUnderTest, instance: ReportProfile,
             utilities: Callable[[], InvitationUtilities] | None = None,
             ) -> list[DeviationReport]:
    """Truthful values, every invitation subset: utility must be >= 0.

    Returned reports have deviating_utility < 0; truthful_utility is the
    full-invitation utility for context.
    """
    return _own_deviations(mechanism, instance, "ir", lambda u, u_full: u < 0, utilities)


def check_invitation_ic(mechanism: MechanismUnderTest, instance: ReportProfile,
                        utilities: Callable[[], InvitationUtilities] | None = None,
                        ) -> list[DeviationReport]:
    """Truthful values: full invitation must dominate every proper subset."""
    return _own_deviations(mechanism, instance, "invitation-ic",
                           lambda u, u_full: u > u_full, utilities)


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
    under-approximation: it can falsify IC but never certify it.
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
                   ) -> list[DeviationReport]:
    """For every buyer, invitation subset, and grid misreport: reporting true
    values must dominate the misreport at that same invitation set. Each
    (buyer, subset) gets one `mechanism.value_rerun`, asked for every vector.

    Combined with check_invitation_ic this covers joint (value, invitation)
    deviations through the dominance chain full-truth >= (v, r-hat) >= (v-hat, r-hat).
    """
    if grid is None:
        grid = integer_value_grid
    violations: list[DeviationReport] = []
    valid = compute_market(instance).valid
    for i in sorted(instance.reports):
        if i not in valid:
            continue
        rep = instance.reports[i]
        vectors = [v for v in grid(instance, i) if v != rep.values]
        for sub in _subsets(rep.invited):
            rerun = mechanism.value_rerun(instance.with_report(i, ReportedType(rep.values, sub)), i)
            units, payment = rerun(rep.values)
            u_base = cumulative_value(rep.values, units) - payment
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


def check_non_wasteful(outcome: Outcome, instance: ReportProfile) -> bool:
    """All K units placed whenever any valid buyer exists (no-reserve runs only)."""
    market = compute_market(instance)
    if not market.valid:
        return sum(outcome.units.values()) == 0
    return sum(outcome.units.values()) == instance.k


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
    ldm = run_ldm(market, mu)
    vcg = run_vcg_first_layer(market)
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


def payment_decomposition(outcome: Outcome, market: Market, mu: int) -> list[DecompositionRow]:
    """Decompose every processed real buyer's payment and assert p = q - t."""
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


def _tree_profile(instance: ReportProfile) -> tuple[ReportProfile, Market]:
    """The instance with invitations replaced by its BFS-tree child sets."""
    tree = compute_market(instance)
    reports = dict(instance.reports)
    for i in tree.valid:
        reports[i] = ReportedType(instance.reports[i].values, tree.children[i])
    profile = ReportProfile(
        k=instance.k,
        seller_neighbors=instance.seller_neighbors,
        reports=reports,
        mu=instance.mu,
        labels=instance.labels,
    )
    return profile, tree


def check_child_monotonicity(mechanism: MechanismUnderTest,
                             instance: ReportProfile) -> list[DeviationReport]:
    """No same-layer buyer may gain utility from another buyer's extra children.

    Works on the instance's BFS tree: for each buyer j with children and each
    proper child subset, deleting the other subtrees must leave every
    same-layer observer's utility at least as high as under the full set.
    """
    base_profile, tree = _tree_profile(instance)
    full = mechanism.run(base_profile)
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
        found = check_invitation_ic(mech, instance)
        if not found and include_value_ic:
            found = check_value_ic(mech, instance)
        if found:
            return index, found[0]
    return None


@dataclass(frozen=True)
class PropertyResult:
    prop: str
    ok: bool
    detail: str = ""
    reports: tuple[DeviationReport, ...] = ()


def _deviations(reports: list[DeviationReport]) -> tuple:
    return (not reports, "", tuple(reports))


def _non_wasteful(mech: MechanismUnderTest, instance: ReportProfile, mu: int, utilities) -> tuple:
    ok = check_non_wasteful(mech.run(instance), instance)
    return (ok, "" if ok else "units unsold", ())


def _dominance(mech: MechanismUnderTest, instance: ReportProfile, mu: int, utilities) -> tuple:
    cmp = compare_vs_vcg(compute_market(instance), mu)
    return (cmp.welfare_dominates and cmp.revenue_dominates,
            f"welfare {cmp.ldm_welfare} vs {cmp.vcg_welfare}, "
            f"revenue {cmp.ldm_revenue} vs {cmp.vcg_revenue}", ())


def _decomposition(mech: MechanismUnderTest, instance: ReportProfile, mu: int,
                   utilities) -> tuple:
    market = compute_market(instance)
    out = run_ldm_tree(market, mu)
    try:
        rows = payment_decomposition(out, market, mu)
    except ContractError as exc:
        return (False, str(exc), ())
    first, second = check_decomposition_inequalities(rows, run_vcg_first_layer(market))
    ok = first and second
    return (ok, "" if ok else f"layer-1 charge bound: {first}, cross-layer bound: {second}", ())


def _order_independence(mech: MechanismUnderTest, instance: ReportProfile, mu: int,
                        utilities) -> tuple:
    ok = check_order_independence(instance, mu)
    return (ok, "" if ok else "order changed outcome", ())


# Property name -> (check, ldm_only). A check maps (mechanism, instance, pinned
# mu, invitation utilities) to PropertyResult's (ok, detail, reports); the last
# is `run_properties`'s shared `_invitation_utilities`. Checkers are looked up by
# name when called, so wrappers installed on this module see every call.
PropertyCheck = Callable[
    [MechanismUnderTest, ReportProfile, int, Callable[[], InvitationUtilities]], tuple]
PROPERTIES: dict[str, tuple[PropertyCheck, bool]] = {
    "ir": (lambda mech, inst, mu, utilities: _deviations(check_ir(mech, inst, utilities)),
           False),
    "invite-ic": (lambda mech, inst, mu, utilities:
                  _deviations(check_invitation_ic(mech, inst, utilities)), False),
    "value-ic": (lambda mech, inst, mu, utilities: _deviations(check_value_ic(mech, inst)),
                 False),
    "non-wasteful": (_non_wasteful, False),
    "dominance": (_dominance, True),
    "decomposition": (_decomposition, True),
    "child-monotonicity": (lambda mech, inst, mu, utilities:
                           _deviations(check_child_monotonicity(mech, inst)), False),
    "order-independence": (_order_independence, True),
}
PROPERTY_NAMES = tuple(PROPERTIES)


def run_properties(instance: ReportProfile, mechanism_name: str,
                   properties: Sequence[str], *, mu: int | None = None,
                   ) -> list[PropertyResult]:
    """Run the named property checks for one instance, in the given order.

    Properties marked `ldm_only` in `PROPERTIES` refuse unlayered mechanisms.
    "ir" and "invite-ic" scan one `_invitation_utilities` table, computed by
    whichever of them runs first.
    """
    entry = MECHANISMS.get(mechanism_name)
    if entry is None:
        raise ContractError(f"unknown mechanism {mechanism_name!r}")
    pinned = entry.pinned_mu(instance, mu)
    mech = entry.checked(pinned)
    utilities = cache(partial(_invitation_utilities, mech, instance))
    results: list[PropertyResult] = []
    for prop in properties:
        if prop not in PROPERTIES:
            raise ContractError(f"unknown property {prop!r}")
        if not entry.admits(prop):
            raise ContractError(f"property {prop!r} requires the ldm mechanism")
        check = PROPERTIES[prop][0]
        results.append(PropertyResult(prop, *check(mech, instance, pinned, utilities)))
    return results


def check_order_independence(instance: ReportProfile, mu: int) -> bool:
    """Three permutations of the within-layer buyer loop must not change the LDM outcome."""
    market = compute_market(instance)
    base = run_ldm_tree(market, mu, want_trace=False)
    ids = sorted(market.valid)
    rng = random.Random(f"order:{len(ids)}:{instance.k}")
    for _ in range(3):
        perm = ids[:]
        rng.shuffle(perm)
        out = run_ldm_tree(market, mu, order=perm, want_trace=False)
        if out.units != base.units or out.payments != base.payments:
            return False
    return True
