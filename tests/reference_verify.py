"""The invitation and value deviation checks as first written: every proper
invitation subset gets its own market and a full mechanism run for IR and
invitation-IC, and value-IC builds each subset's market again for its rerun.

The oracle for `verify._Truthful.deviation`, which builds each (buyer,
subset) market once and, for a mechanism with its own value rerun (LDM),
reads the invitation checks' utility from that rerun at the true values.
Testing use only.
"""

from __future__ import annotations

from netauction.market import ReportedType, compute_market, cumulative_value
from netauction.verify import DeviationReport, _subsets, integer_value_grid, utility_of


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
            units, payment = rerun(rep.values)
            u_base = cumulative_value(rep.values, units) - payment
            menu = getattr(rerun, "menu", None)
            if menu is not None and all(
                    cumulative_value(rep.values, x) - p <= u_base for x, p in menu):
                continue
            for v in grid(instance, i):
                if v == rep.values:
                    continue
                units, payment = rerun(v)
                u_dev = cumulative_value(rep.values, units) - payment
                if u_dev > u_base:
                    violations.append(DeviationReport(
                        i, ReportedType(rep.values, sub), ReportedType(v, sub), u_base, u_dev,
                        mechanism.name, instance, "value-ic"))
    return sorted(violations, key=DeviationReport.sort_key)
