"""The deviation checks as first written: every proper invitation subset
gets its own market and a full mechanism run for IR and invitation-IC,
value-IC builds each subset's market again for its rerun, and child
monotonicity builds the BFS-tree profile's market, runs the mechanism on
it, and builds a fresh market and runs in full for every proper child
subset.

The oracle for the shared truthful instance of `verify`, which lists each
buyer's invitation reports once, builds one market per class of them (the
reports that keep the same children, for a mechanism that reads only the
BFS tree), reads the invitation checks' utility from the value rerun on it
at the true values, and lets child monotonicity rerun those markets when
the instance is its own BFS tree. The subsets are enumerated here too, by
this module's own `_subsets`, and every one gets its own market, so the
oracle shares neither the enumeration nor the classes with what it
checks. Testing use only.
"""

from __future__ import annotations

import itertools

from netauction.errors import SearchBudgetExceeded
from netauction.market import ReportedType, compute_market, cumulative_value
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, DeviationReport, _tree_profile,
                               integer_value_grid, utility_of)


def _subsets(invited, proper_only=False):
    """Every subset of `invited`, smallest first, the full set last unless
    `proper_only`; past the exhaustive bound, `SearchBudgetExceeded`."""
    if len(invited) > MAX_INVITES_EXHAUSTIVE:
        raise SearchBudgetExceeded(
            f"{len(invited)} invites exceed the exhaustive bound {MAX_INVITES_EXHAUSTIVE}")
    elems = sorted(invited)
    top = len(elems) if proper_only else len(elems) + 1
    for r in range(top):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def invitation_utilities(mechanism, instance):
    """Each valid buyer's (report, true-value utility) under every invitation
    report, the full one first: one fresh market and run per proper subset."""
    market = compute_market(instance)
    full = mechanism.run(market)
    table = []
    for i in sorted(market.valid):
        truthful = instance.reports[i]
        scanned = [(truthful, utility_of(instance, i, full))]
        for sub in _subsets(truthful.invited, proper_only=True):
            reduced = ReportedType(truthful.values, sub)
            outcome = mechanism.run(compute_market(instance.with_report(i, reduced)))
            scanned.append((reduced, utility_of(instance, i, outcome)))
        table.append((i, scanned))
    return table


def _own_deviations(mechanism, instance, kind, violates):
    violations = []
    for i, scanned in invitation_utilities(mechanism, instance):
        truthful, u_full = scanned[0]
        for report, u in scanned:
            if violates(u, u_full):
                violations.append(DeviationReport(i, truthful, report, u_full, u,
                                                  mechanism.name, instance, kind))
    return sorted(violations, key=DeviationReport.sort_key)


def check_ir(mechanism, instance):
    return _own_deviations(mechanism, instance, "ir", lambda u, u_full: u < 0)


def check_invitation_ic(mechanism, instance):
    return _own_deviations(mechanism, instance, "invitation-ic", lambda u, u_full: u > u_full)


def check_value_ic(mechanism, instance, grid=integer_value_grid):
    """Per (buyer, subset): a fresh market (the truthful one for the full
    set), one value rerun on it, the truthful baseline read from that rerun,
    and the menu or, where it does not certify, the grid."""
    violations = []
    market = compute_market(instance)
    for i in sorted(market.valid):
        rep = instance.reports[i]
        for sub in _subsets(rep.invited):
            deviated = market if sub == rep.invited else compute_market(
                instance.with_report(i, ReportedType(rep.values, sub)))
            rerun = mechanism.value_rerun(deviated, i)
            units, payment = rerun.answer(rep.values)
            u_base = cumulative_value(rep.values, units) - payment
            if rerun.menu is not None and all(
                    cumulative_value(rep.values, x) - p <= u_base for x, p in rerun.menu):
                continue
            for v in grid(instance, i):
                if v == rep.values:
                    continue
                units, payment = rerun.answer(v)
                u_dev = cumulative_value(rep.values, units) - payment
                if u_dev > u_base:
                    violations.append(DeviationReport(
                        i, ReportedType(rep.values, sub), ReportedType(v, sub), u_base, u_dev,
                        mechanism.name, instance, "value-ic"))
    return sorted(violations, key=DeviationReport.sort_key)


def check_child_monotonicity(mechanism, instance):
    """A fresh market of the BFS-tree profile and a full run on it, then a
    fresh market and a full run per proper child subset of each buyer j
    with children and same-layer observers."""
    tree = compute_market(instance)
    base_profile = _tree_profile(instance, tree)
    full = mechanism.run(compute_market(base_profile))
    violations = []
    for j in sorted(tree.valid):
        if not tree.children[j]:
            continue
        observers = [i for i in sorted(tree.layers[tree.layer_of[j] - 1]) if i != j]
        if not observers:
            continue
        full_rep = base_profile.reports[j]
        for sub in _subsets(full_rep.invited, proper_only=True):
            reduced = ReportedType(full_rep.values, sub)
            out = mechanism.run(compute_market(base_profile.with_report(j, reduced)))
            for i in observers:
                u_reduced = utility_of(base_profile, i, out)
                u_full = utility_of(base_profile, i, full)
                if u_reduced < u_full:
                    violations.append(DeviationReport(i, reduced, full_rep, u_reduced, u_full,
                                                      mechanism.name, instance,
                                                      "child-monotonicity"))
    return sorted(violations, key=DeviationReport.sort_key)
