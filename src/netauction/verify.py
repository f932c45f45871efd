"""Executable properties: IR/IC deviation enumeration, axiom checks,
dominance comparisons, the payment decomposition, child monotonicity, and
randomized counterexample search.

Checkers treat a mechanism as a black box over computed markets
(`MechanismUnderTest`). An invitation deviation builds its own market, so
buyers it disconnects correctly earn zero; a value misreport goes through
the mechanism's value rerun (`MechanismUnderTest.rerun_on`), by default
`run` on `Market.with_values`, which must agree with `run` exactly.
Utilities are always evaluated against the buyer's TRUE values from the
untouched instance. The checks of one `run_properties` call share one
truthful instance (`_Truthful`), which holds the one enumeration of
invitation deviations: `subsets(i)` lists one report of buyer i per class
of the reports her mechanism cannot tell apart, as its record declares
(`reads`), her full set last. Each fact of a report is a table keyed by
(buyer, report), filled on first read. `market_of` is its market, the
truthful one for her full set, else built once; `rerun` is the value rerun
on that market; `utility` is her true-value utility, the truthful
outcome's for her full set, else the rerun's answer at her true values,
or, for a black box, the one run's on the market; `outcome_of` is that
run. IR, invitation-IC and value-IC walk the same lists and read the same
tables; child monotonicity reads `tree`'s outcomes, `tree` being the same
`_Truthful` on an own BFS tree. What the harness may assume of a mechanism
is declared in its record, never inferred from its functions. Under a
record that declares LDM's run and rerun (`ldm_mu`), the truthful run
answers the full set, and, on an own tree, every read, so no deviated
market is built (`_Truthful.ldm_trace`); any other graph report, and a
buyer the run refuses, is read from an unpriced walk of its own
(`ldm_value_rerun`), and the LDM-only properties' first-layer VCG from the
truthful run.

A certificate is a menu of (units, payment) pairs that bounds a family of
one buyer's reports (`mechanisms.Menu`), and `_certifies` is the one check
of a menu against her utility: when no entry beats it, no report of the
family does, at any granularity. LDM's value rerun carries its outcome
menu, which certifies value-IC per (buyer, invitation subset). An
`invitation_menu` bounds every invitation report of a buyer: DNA-MU's on
any market, so a buyer it certifies has no subset to run in invitation-IC;
LDM's on an instance that is its own BFS tree, so a buyer it certifies
walks only her empty and full sets in every check, and the exhaustive
bound holds only where subsets are enumerated. Black boxes have no menu
and enumerate every subset. Every other check, and value-IC of a pair the
menu does not certify or of a mechanism without a menu, is falsification
only: an empty report list means no violation was found at the enumerated
granularity, not a proof.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
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
    Menu,
    Outcome,
    ValueRerun,
    dna_mu_invitation_menu,
    ldm_run_peer_outcomes,
    ldm_run_priced,
    ldm_run_value_rerun,
    ldm_run_vcg_first_layer,
    ldm_value_rerun,
    outcome_welfare,
    run_dna_mu,
    run_ldm,
    run_vcg_first_layer,
)
from .removed_sets import min_valid_mu, robust_mu

MAX_INVITES_EXHAUSTIVE = 6
DEFAULT_GRID_CAP = 128


@dataclass(frozen=True)
class MechanismUnderTest:
    """A named mechanism as the CLI runs it and the checkers rerun it: the
    one record of what it declares about itself.

    `run` maps a computed market to the outcome; `market.profile` keeps the
    raw reports for a mechanism that needs them. `value_rerun(market, i)`
    returns a `ValueRerun` whose `answer(v)` is i's (units, payment) under
    `run(market.with_values(i, v))`; left out, `rerun_on` builds that from
    the record's `run`, and a deviation's utility is read off the one run
    on its market (`runs_for_values`). Its `menu`, bounding every answer,
    lets `check_value_ic` certify instead of enumerate.

    `invitation_menu(truth)`, given the shared truthful instance, returns a
    function from a valid buyer to a menu bounding every invitation report
    of hers, or None, or is None itself; `check_invitation_ic` skips the
    subsets of a buyer whose menu certifies her full report. Left out, every
    walked report is checked.

    `reads` declares which of a buyer's invitees the mechanism can notice,
    so which the harness walks (`WALKED`): left out, every one (a black
    box); "tree", her BFS children (LDM, DNA-MU); "layer 1", none, as no
    invitation report moves layer 1 (`vcg_mechanism`). `ldm_mu`, declared
    only by `ldm_mechanism`, says that `run` and `value_rerun` are LDM's
    own at that mu: the truthful run then answers reruns and outcomes
    (`_Truthful.ldm_trace`, which checks that the run's trace is LDM's at
    that mu), and, since LDM's menu also proves IR and value-IC
    (notes/decisions.md), every check walks only a certified buyer's empty
    and full sets.
    """

    name: str
    run: Callable[[Market], Outcome]
    value_rerun: Callable[[Market, BuyerId], ValueRerun] | None = None
    invitation_menu: Callable[[_Truthful], Callable[[BuyerId], Menu | None] | None] | None = None
    reads: str | None = None
    ldm_mu: int | None = None

    @property
    def runs_for_values(self) -> bool:
        """Whether the value rerun is the generic one, `run` on each patched
        market: then a deviation's true-value utility is read off the one
        run on its market (`_Truthful.utility`)."""
        return self.value_rerun is None

    def rerun_on(self, market: Market, i: BuyerId) -> ValueRerun:
        """i's value rerun on `market`: `value_rerun`'s, else the generic
        one, the record's `run` on each patched market, and on `market`
        itself at the values it holds: one run per market at true values."""
        if self.value_rerun is not None:
            return self.value_rerun(market, i)
        run, held = self.run, market.values_of(i)

        def answer(v: ValuationVector) -> tuple[int, Money]:
            outcome = run(market if v == held else market.with_values(i, v))
            return outcome.units_of(i), outcome.payment_of(i)

        return ValueRerun(answer)


# A record's `reads` -> buyer i's invitees whose hiding its run can notice,
# given the truthful market and her invitations. A name not listed raises.
WALKED: dict[str | None, Callable[..., frozenset[BuyerId]]] = {
    None: lambda market, i, invited: invited,
    "tree": lambda market, i, invited: market.children[i],
    "layer 1": lambda market, i, invited: frozenset(),
}


def given_mu(instance: ReportProfile, mu: int | None) -> int | None:
    """`mu`, else the instance's own, else None: each caller has its own fallback."""
    return mu if mu is not None else instance.mu


# The only definition of each mechanism. The lambdas look the run functions
# up by name when called, so wrappers installed on this module (such as
# tracing spans) see every run.
def ldm_mechanism(mu: int) -> MechanismUnderTest:
    """LDM at `mu`."""
    return MechanismUnderTest("ldm", lambda market: run_ldm(market, mu),
                              lambda market, i: ldm_value_rerun(market, mu, i),
                              lambda truth: _ldm_invitation_menu(truth, mu),
                              reads="tree", ldm_mu=mu)


def _ldm_invitation_menu(truth: _Truthful, mu: int) -> Callable[[BuyerId], Menu | None] | None:
    """On an instance that is its own BFS tree and whose market admits `mu`
    (else None, and the walk order decides which undersized mu a check
    reports), a buyer with two or more invitations gets her full and empty
    sets' value menus joined (notes/decisions.md); any other buyer, None."""
    if not truth.own_tree or mu < truth.min_valid_mu:
        return None
    reports = truth.instance.reports

    def menu(i: BuyerId) -> Menu | None:
        invited = reports[i].invited
        return (truth.rerun(i, invited).menu + truth.rerun(i, frozenset()).menu
                if len(invited) >= 2 else None)

    return menu


def dna_mu_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest(
        "dna-mu", lambda market: run_dna_mu(market),
        invitation_menu=lambda truth: dna_mu_invitation_menu(truth.market, truth.outcome),
        reads="tree")


def vcg_mechanism() -> MechanismUnderTest:
    return MechanismUnderTest("vcg-l1", lambda market: run_vcg_first_layer(market),
                              reads="layer 1")


@dataclass(frozen=True)
class RegisteredMechanism:
    """One mechanism name shared by the CLI and the property harness.

    A `layered` mechanism takes mu and admits the LDM-only properties; the
    others ignore mu. `checked(mu)` is the mechanism, a layered one at mu
    (a reserve price is already in the market, see `inject_dummies`).
    """

    layered: bool
    checked: Callable[[int], MechanismUnderTest]

    def pinned_mu(self, instance: ReportProfile, mu: int | None = None) -> int:
        """mu for the checkers: `mu`, else the instance's, else `robust_mu`.

        Deviation re-runs need a mu that stays valid on every shrunken
        profile; the reattachment-robust bound provides that default.
        Unlayered mechanisms get 0.
        """
        if not self.layered:
            return 0
        mu = given_mu(instance, mu)
        return robust_mu(instance) if mu is None else mu

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


class _lazy:
    """A method read as an attribute, computed on the first read and kept
    in the instance dictionary, where every later read finds it first:
    `functools.cached_property` without the lock that Python 3.11's takes
    on each first read. A first read of a constant took 0.99 µs through
    `cached_property` and 0.26 µs through this, a later read 0.04 µs
    (Python 3.11.7, 2-core x86-64 VM)."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class _Truthful:
    """An instance as its checks share it: its market, the mechanism's
    truthful outcome, first-layer VCG's read off it, each buyer's invitation
    reports (`subsets`, the one enumeration of invitation deviations, one
    report per class the mechanism cannot tell apart), and one table per
    fact of a deviation, keyed by (valid buyer, report): its market
    (`market_of`), the mechanism's value rerun (`rerun`), her true-value
    utility (`utility`) and the run's outcome (`outcome_of`), each computed
    once, on first read. Every deviation check reads `subsets` and these
    tables, so each walked market is built once, only when read, given one
    value rerun when a check reads one, and run at most once; her full set
    reads the truthful ones. `run_properties` passes one to every check; a
    checker called on its own builds its own. The market, the outcomes and
    the verdicts read of them (`own_tree`, `min_valid_mu`, `ldm_trace`,
    `certified`) are `_lazy` attributes: a search builds one `_Truthful`
    per instance and reads three of them (a DNA-MU search) or six (an LDM
    one), so their first reads take no lock."""

    def __init__(self, mechanism: MechanismUnderTest, instance: ReportProfile):
        self.mechanism = mechanism
        self.instance = instance
        self._markets: dict[tuple[BuyerId, frozenset[BuyerId]], Market] = {}
        self._reruns: dict[tuple[BuyerId, frozenset[BuyerId]], ValueRerun] = {}
        self._utilities: dict[tuple[BuyerId, frozenset[BuyerId]], Money] = {}
        self._outcomes: dict[tuple[BuyerId, frozenset[BuyerId]], Outcome] = {}
        self._subset_lists: dict[BuyerId, list[frozenset[BuyerId]]] = {}
        self._tree: _Truthful | None = None

    @_lazy
    def market(self) -> Market:
        return compute_market(self.instance)

    @_lazy
    def outcome(self) -> Outcome:
        return self.mechanism.run(self.market)

    @_lazy
    def vcg(self) -> Outcome:
        return ldm_run_vcg_first_layer(self.outcome.trace)

    @property
    def tree(self) -> _Truthful:
        """The BFS tree child monotonicity reads: this instance when every
        valid buyer invites exactly her market children (an own tree), else
        a `_Truthful` of its `_tree_profile`, built once. The verdict is kept
        as a flag (`own_tree`) and only the other instance is kept: keeping
        `self` would make a reference cycle, which only the garbage
        collector frees."""
        if self.own_tree:
            return self
        if self._tree is None:
            self._tree = _Truthful(self.mechanism, _tree_profile(self.instance, self.market))
        return self._tree

    @_lazy
    def own_tree(self) -> bool:
        """Whether every valid buyer invites exactly her market children."""
        market, reports = self.market, self.instance.reports
        return all(reports[i].invited == market.children[i] for i in market.valid)

    @_lazy
    def min_valid_mu(self) -> int:
        """`min_valid_mu` of the market: LDM's run refuses a smaller mu."""
        return min_valid_mu(self.market)

    @_lazy
    def ldm_trace(self) -> LdmTrace | None:
        """The truthful run's trace, when the mechanism declares its run and
        rerun LDM's own (`ldm_mu`) at a mu the market admits, so that reading
        the run raises nothing, and the trace is an `LdmTrace` on this market
        at that mu, so that the declaration holds of the run; else None.
        Every read of a rerun or an outcome from the run goes through it
        (notes/decisions.md)."""
        mu = self.mechanism.ldm_mu
        if mu is None or mu < self.min_valid_mu:
            return None
        trace = self.outcome.trace
        return (trace if isinstance(trace, LdmTrace) and trace.market is self.market
                and trace.mu == mu else None)

    @_lazy
    def certified(self) -> frozenset[BuyerId]:
        """The valid buyers with invitations whose menu from the mechanism's
        `invitation_menu` certifies their full report."""
        hook = self.mechanism.invitation_menu
        menu = hook and hook(self)
        if not menu:
            return frozenset()
        reports = self.instance.reports
        found = []
        for i in self.market.valid:
            report = reports[i]
            if report.invited and _certifies(menu(i), report.values,
                                             self.utility(i, report.invited)):
                found.append(i)
        return frozenset(found)

    def subsets(self, i: BuyerId) -> list[frozenset[BuyerId]]:
        """Buyer i's invitation reports, one per class, by size, her full
        set last, listed once: her empty and full sets when the mechanism
        declares `ldm_mu` and she is `certified`; else, W being the
        invitees her mechanism can notice (`WALKED`), every proper subset
        of W with her other invitees kept, raising `SearchBudgetExceeded`
        when |W| is past `MAX_INVITES_EXHAUSTIVE` (notes/decisions.md, "A
        deviation class is walked once").

        The order decides which deviation raises first: at an undersized mu
        each deviated market may name a different required bound."""
        found = self._subset_lists.get(i)
        if found is None:
            invited = self.instance.reports[i].invited
            if self.mechanism.ldm_mu is not None and i in self.certified:
                found = [frozenset()]
            else:
                walked = WALKED[self.mechanism.reads](self.market, i, invited)
                if len(walked) > MAX_INVITES_EXHAUSTIVE:
                    raise SearchBudgetExceeded(f"{len(walked)} invites exceed the exhaustive "
                                               f"bound {MAX_INVITES_EXHAUSTIVE}")
                elems, kept = sorted(walked), invited - walked
                found = [frozenset(combo).union(kept) if kept else frozenset(combo)
                         for r in range(len(elems)) for combo in itertools.combinations(elems, r)]
            found.append(invited)
            self._subset_lists[i] = found
        return found

    def market_of(self, i: BuyerId, invited: frozenset[BuyerId]) -> Market:
        """The market when i invites `invited`: the truthful market for her
        full set, else `compute_market` of the instance with her one report
        changed, her values kept, built on its first read."""
        truthful = self.instance.reports[i]
        if invited == truthful.invited:
            return self.market
        key = (i, invited)
        found = self._markets.get(key)
        if found is None:
            found = self._markets[key] = compute_market(
                self.instance.with_report(i, ReportedType(truthful.values, invited)))
        return found

    def rerun(self, i: BuyerId, invited: frozenset[BuyerId]) -> ValueRerun:
        """The mechanism's value rerun of i when she invites `invited`, made
        once. The truthful LDM run (`ldm_trace`) answers her full set, and
        on an own tree every set, with no market built
        (`ldm_run_value_rerun`), unless it refuses her; any other rerun is
        `rerun_on(market_of(i, invited), i)` (notes/decisions.md, "Own-tree
        deviations are read from the truthful LDM run")."""
        key = (i, invited)
        found = self._reruns.get(key)
        if found is None:
            trace = self.ldm_trace
            found = self._reruns[key] = (
                trace is not None
                and (invited == self.instance.reports[i].invited or self.own_tree)
                and ldm_run_value_rerun(trace, i, invited)
                or self.mechanism.rerun_on(self.market_of(i, invited), i))
        return found

    def utility(self, i: BuyerId, invited: frozenset[BuyerId]) -> Money:
        """i's true-value utility when she invites `invited`, computed once:
        for her full set the truthful outcome's, building no rerun; else,
        when the rerun is the generic one, that of the one run on her
        deviated market (`outcome_of`), and otherwise her rerun's answer at
        her true values."""
        key = (i, invited)
        u = self._utilities.get(key)
        if u is None:
            truthful = self.instance.reports[i]
            if invited == truthful.invited:
                u = utility_of(self.instance, i, self.outcome)
            elif self.mechanism.runs_for_values:
                out = self.outcome_of(i, invited)
                u = cumulative_value(truthful.values, out.units_of(i)) - out.payment_of(i)
            else:
                units, payment = self.rerun(i, invited).answer(truthful.values)
                u = cumulative_value(truthful.values, units) - payment
            self._utilities[key] = u
        return u

    def outcome_of(self, i: BuyerId, invited: frozenset[BuyerId]) -> Outcome:
        """The mechanism's outcome when i invites `invited`: the truthful one
        for her full set, else the one run on `market_of(i, invited)`, which
        builds no value rerun and which `utility` reads too when the rerun
        is the generic one.

        On an own tree, the truthful LDM run (`ldm_trace`) answers instead,
        with no market built, for i's layer peers, the buyers child
        monotonicity reads (`ldm_run_peer_outcomes`): the truthful outcome
        itself when none of them moves."""
        if self.ldm_trace is not None and self.own_tree:
            return ldm_run_peer_outcomes(self.outcome, i, invited)
        if invited == self.instance.reports[i].invited:
            return self.outcome
        key = (i, invited)
        found = self._outcomes.get(key)
        if found is None:
            found = self._outcomes[key] = self.mechanism.run(self.market_of(i, invited))
        return found

    def report(self, kind: str, i: BuyerId, truthful: ReportedType, deviating: ReportedType,
               u_truthful: Money, u_deviating: Money) -> DeviationReport:
        """A `kind` violation found for buyer i on this instance."""
        return DeviationReport(i, truthful, deviating, u_truthful, u_deviating,
                               self.mechanism.name, self.instance, kind)


def _own_deviations(truth: _Truthful, kind: str, violates: Callable[[Money, Money], bool],
                    skip_certified: bool = False) -> list[DeviationReport]:
    """Every invitation report of a valid buyer whose utility u has
    `violates(u, u_full)`, u_full her full report's: that report is checked
    once, then her proper subsets are walked, unless she has none or, with
    `skip_certified`, she is `certified`. `skip_certified` is invitation-IC,
    which never flags a full report, so it reads no utility of a buyer
    without invitations; the truthful outcome is still run first, so that
    its error, at an undersized mu say, is the one raised."""
    violations: list[DeviationReport] = []
    valid = sorted(truth.market.valid)
    if valid:
        truth.outcome  # run first, as said above
    reports = truth.instance.reports
    for i in valid:
        truthful = reports[i]
        if skip_certified and not truthful.invited:
            continue
        u_full = truth.utility(i, truthful.invited)
        if violates(u_full, u_full):
            violations.append(truth.report(kind, i, truthful, truthful, u_full, u_full))
        if not truthful.invited or skip_certified and i in truth.certified:
            continue
        for sub in truth.subsets(i)[:-1]:
            u = truth.utility(i, sub)
            if violates(u, u_full):
                violations.append(truth.report(kind, i, truthful,
                                               ReportedType(truthful.values, sub), u_full, u))
    return sorted(violations, key=DeviationReport.sort_key)


def check_ir(mechanism: MechanismUnderTest, instance: ReportProfile, *,
             truth: _Truthful | None = None) -> list[DeviationReport]:
    """Truthful values, every `_Truthful.subsets` report: utility must be >= 0.

    Returned reports have deviating_utility < 0; truthful_utility is the
    full-invitation utility for context. `truth`, here and in the other
    deviation checkers, is the shared `_Truthful` of `mechanism` on
    `instance`; left out, the checker builds its own.
    """
    return _own_deviations(truth or _Truthful(mechanism, instance), "ir",
                           lambda u, u_full: u < 0)


def check_invitation_ic(mechanism: MechanismUnderTest, instance: ReportProfile, *,
                        truth: _Truthful | None = None) -> list[DeviationReport]:
    """Truthful values: full invitation must dominate every proper subset.

    A buyer whose full report's utility is certified by her menu from the
    mechanism's `invitation_menu` has no subset to check."""
    return _own_deviations(truth or _Truthful(mechanism, instance), "invitation-ic",
                           operator.gt, skip_certified=True)


def _certifies(menu: Menu | None, values: ValuationVector, u: Money) -> bool:
    """Whether `menu`, bounding a family of a buyer's reports, shows that
    none of them gives her more true-value utility than u under `values`:
    no entry does. None, a black box's, certifies nothing."""
    if menu is None:
        return False
    for x, p in menu:
        if cumulative_value(values, x) - p > u:
            return False
    return True


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
    if cap < 1:
        raise ContractError(f"grid cap must be >= 1, got {cap}")
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
    (buyer, subset) of `_Truthful.subsets` gets one value rerun
    (`_Truthful.rerun`), and the truthful report's utility there, the one
    the invitation checks read (`_Truthful.utility`).

    A rerun whose `menu` `_certifies` the truthful report's utility needs no
    grid: no report of any size does better. Otherwise the rerun is asked
    for every grid vector, and the buyer's grid is built on first need.

    Combined with check_invitation_ic this covers joint (value, invitation)
    deviations through the dominance chain full-truth >= (v, r-hat) >= (v-hat, r-hat).
    """
    if grid is None:
        grid = integer_value_grid
    violations: list[DeviationReport] = []
    truth = truth or _Truthful(mechanism, instance)
    for i in sorted(truth.market.valid):
        rep = instance.reports[i]
        vectors = None
        for sub in truth.subsets(i):
            rerun = truth.rerun(i, sub)
            u_base = truth.utility(i, sub)
            if _certifies(rerun.menu, rep.values, u_base):
                continue
            if vectors is None:
                vectors = [v for v in grid(instance, i) if v != rep.values]
            for v in vectors:
                units, payment = rerun.answer(v)
                u_dev = cumulative_value(rep.values, units) - payment
                if u_dev > u_base:
                    violations.append(truth.report("value-ic", i, ReportedType(rep.values, sub),
                                                   ReportedType(v, sub), u_base, u_dev))
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


def compare_vs_vcg(market: Market, mu: int) -> VcgComparison:
    """LDM at mu and first-layer VCG, read off its run, on the same market."""
    return _comparison(market, ldm := run_ldm(market, mu), ldm_run_vcg_first_layer(ldm.trace))


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


def payment_decomposition(outcome: Outcome) -> list[DecompositionRow]:
    """Decompose every processed real buyer's payment and assert p = q - t.

    The child sets are those of the traced run's market."""
    trace = outcome.trace
    if not isinstance(trace, LdmTrace):
        raise TraceMissing("outcome carries no LDM trace")
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
    q: Counter[int] = Counter()
    t: Counter[int] = Counter()
    for row in rows:
        q[row.layer] += row.q
        t[row.layer] += row.t
    return (q[1] >= vcg_outcome.revenue, all(q[l] >= t[l - 1] for l in q if l >= 2))


def _tree_profile(instance: ReportProfile, tree: Market) -> ReportProfile:
    """The instance with invitations replaced by the child sets of its
    market `tree`."""
    reports = dict(instance.reports)
    for i in tree.valid:
        reports[i] = ReportedType(instance.reports[i].values, tree.children[i])
    return replace(instance, reports=reports)


def check_child_monotonicity(mechanism: MechanismUnderTest, instance: ReportProfile,
                             *, truth: _Truthful | None = None) -> list[DeviationReport]:
    """No same-layer buyer may gain utility from another buyer's extra children.

    Works on `_Truthful.tree`: for each buyer j with children and each proper
    child subset it lists, the run on her deviated market (the other
    subtrees deleted, `_Truthful.outcome_of`) must leave every same-layer
    observer at least as well off. A deletion that gives back the truthful
    outcome itself moves no one. First-layer VCG walks none (`WALKED`).
    """
    if mechanism.reads == "layer 1":
        return []
    own = truth or _Truthful(mechanism, instance)
    tree = own.tree
    market, profile = tree.market, tree.instance
    tree.outcome  # the truthful run comes first, whatever a deletion raises
    violations: list[DeviationReport] = []
    for j in sorted(market.valid):
        layer = market.layers[market.layer_of[j] - 1]
        if not market.children[j] or len(layer) < 2:  # no children, or no observer
            continue
        full_rep = profile.reports[j]
        u_full = None
        for sub in tree.subsets(j)[:-1]:
            out = tree.outcome_of(j, sub)
            if out is tree.outcome:  # the truthful outcome moves no observer
                continue
            if u_full is None:
                u_full = {i: tree.utility(i, profile.reports[i].invited)
                          for i in sorted(layer) if i != j}
            reduced = ReportedType(full_rep.values, sub)
            for i, u in u_full.items():
                u_reduced = utility_of(profile, i, out)
                if u_reduced < u:
                    # the reports name the original instance, not the tree profile
                    violations.append(own.report("child-monotonicity", i, reduced, full_rep,
                                                 u_reduced, u))
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
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
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


def _non_wasteful(truth: _Truthful) -> tuple:
    ok = check_non_wasteful(truth.outcome, truth.market)
    return (ok, "" if ok else "units unsold", ())


def _dominance(truth: _Truthful) -> tuple:
    cmp = _comparison(truth.market, truth.outcome, truth.vcg)
    return (cmp.welfare_dominates and cmp.revenue_dominates,
            f"welfare {cmp.ldm_welfare} vs {cmp.vcg_welfare}, "
            f"revenue {cmp.ldm_revenue} vs {cmp.vcg_revenue}", ())


def _decomposition(truth: _Truthful) -> tuple:
    try:
        rows = payment_decomposition(truth.outcome)
    except ContractError as exc:
        return (False, str(exc), ())
    first, second = check_decomposition_inequalities(rows, truth.vcg)
    ok = first and second
    return (ok, "" if ok else f"layer-1 charge bound: {first}, cross-layer bound: {second}", ())


def _order_independence(truth: _Truthful) -> tuple:
    """Three permutations of each processed layer's members, priced again
    from the truthful LDM run's own pools, must give its units and payments."""
    run, rng = truth.outcome, random.Random(f"order:{len(truth.market.valid)}:{truth.market.k}")
    for _ in range(3):
        out = ldm_run_priced(run.trace, lambda layer: rng.sample(sorted(layer), len(layer)))
        if out.units != run.units or out.payments != run.payments:
            return (False, "order changed outcome", ())
    return (True, "", ())


# Property name -> (check, ldm_only). A check maps the shared truthful
# instance to PropertyResult's (ok, detail, reports); the LDM-only ones read
# the truthful outcome as LDM's, and its trace for the mu it ran at. Checkers
# are looked up by name when called, so wrappers installed on this module see
# every call.
PropertyCheck = Callable[[_Truthful], tuple]
PROPERTIES: dict[str, tuple[PropertyCheck, bool]] = {
    "ir": (lambda truth: _deviations(check_ir, truth), False),
    "invite-ic": (lambda truth: _deviations(check_invitation_ic, truth), False),
    "value-ic": (lambda truth: _deviations(check_value_ic, truth), False),
    "non-wasteful": (_non_wasteful, False),
    "dominance": (_dominance, True),
    "decomposition": (_decomposition, True),
    "child-monotonicity": (lambda truth: _deviations(check_child_monotonicity, truth), False),
    "order-independence": (_order_independence, True),
}
PROPERTY_NAMES = tuple(PROPERTIES)


def run_properties(instance: ReportProfile, mechanism_name: str,
                   properties: Sequence[str], *, mu: int | None = None,
                   ) -> list[PropertyResult]:
    """Run the named property checks for one instance, in the given order.

    Properties marked `ldm_only` in `PROPERTIES` refuse unlayered mechanisms.
    The checks share one `_Truthful`: the instance's market is built once,
    and the truthful outcome and each invitation deviation that "ir",
    "invite-ic", "value-ic" and "child-monotonicity" read are computed by
    whichever check needs them first.
    """
    entry = MECHANISMS.get(mechanism_name)
    if entry is None:
        raise ContractError(f"unknown mechanism {mechanism_name!r}")
    truth = _Truthful(entry.checked(entry.pinned_mu(instance, mu)), instance)
    results: list[PropertyResult] = []
    for prop in properties:
        if prop not in PROPERTIES:
            raise ContractError(f"unknown property {prop!r}")
        if not entry.admits(prop):
            raise ContractError(f"property {prop!r} requires the ldm mechanism")
        check = PROPERTIES[prop][0]
        results.append(PropertyResult(prop, *check(truth)))
    return results

