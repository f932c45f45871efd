"""Spans around the package's public functions, recorded from outside it.

`install` replaces each target function at its defining module (or class)
and at every `netauction` module that imported it by name, so closures and
`from .x import f` call sites both reach the wrapper. Spans live in flat
arrays until the run ends; `summarise` turns them into calls, self time
(span time minus child spans) and work counts per function.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "netauction"

TARGETS = (
    "instance_io.parse_instance",
    "instance_io.random_instance",
    "instance_io.serialize_instance",
    "market.compute_market",
    "market.build_bfs_tree",
    "market.TreeMarket.with_values",
    "market.ReportProfile.with_report",
    "removed_sets.removed_sets_for",
    "removed_sets.robust_mu",
    "removed_sets.min_valid_mu",
    "welfare.constrained_welfare",
    "welfare.kth_highest_first_unit",
    "mechanisms.run_ldm",
    "mechanisms.run_ldm_tree",
    "mechanisms.run_vcg_first_layer",
    "mechanisms.run_dna_mu",
    "verify.run_properties",
    "verify.check_ir",
    "verify.check_invitation_ic",
    "verify.check_value_ic",
    "verify.check_child_monotonicity",
    "verify.integer_value_grid",
    "cli.main",
)

# A mechanism span with no mechanism span above it is one mechanism run; it is
# charged to the nearest enclosing check as that check's `mech_runs`.
MECHANISMS = {"mechanisms.run_ldm", "mechanisms.run_ldm_tree",
              "mechanisms.run_vcg_first_layer", "mechanisms.run_dna_mu"}
RUN_COUNTED = ("verify.check_value_ic", "verify.check_invitation_ic")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pool_items(args, kwargs, result):
    # constrained_welfare raises unless every fixed buyer is included, so the
    # free buyers are the included ones minus the fixed ones; each adds k
    # marginals to the sorted pool.
    market = _arg(args, kwargs, 0, "market")
    free = len(_arg(args, kwargs, 1, "included")) - len(_arg(args, kwargs, 2, "fixed"))
    return market.k * free


WORK = {
    "welfare.constrained_welfare": ("pool_items", _pool_items),
    "welfare.kth_highest_first_unit": ("pool_items",
                                       lambda args, kwargs, result: len(_arg(args, kwargs, 1, "buyers"))),
    "verify.integer_value_grid": ("points", lambda args, kwargs, result: len(result)),
}


class Recorder:
    """Spans as parallel arrays: function index, parent span, op, start, end."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.on = False
        self.current_op = -1
        self.work = [0] * len(TARGETS)
        self.missing: list[str] = []

    def wrap(self, fn, index, work):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = len(self.fn)
            self.fn.append(index)
            self.parent.append(self.stack[-1])
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(span)
            self.start[span] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter_ns()
                self.stack.pop()
            if work is not None:
                self.work[index] += work(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> list:
        """Wrap every target; returns the patches `uninstall` reverts."""
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        for index, target in enumerate(TARGETS):
            module_name, qualname = target.split(".", 1)
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(target)
                continue
            work = WORK.get(target, (None, None))[1]
            wrapper = self.wrap(original, index, work)
            sites = [(owner, attr)]
            if not path:
                sites += [(m, name) for m in modules for name, value in vars(m).items()
                          if value is original and (m, name) != (owner, attr)]
            for site, name in sites:
                patches.append((site, name, original))
                setattr(site, name, wrapper)
        return patches

    @staticmethod
    def uninstall(patches: list) -> None:
        for site, name, original in reversed(patches):
            setattr(site, name, original)

    def summarise(self, ops_only: bool = False) -> dict:
        """Per target: calls, self_ns, total_ns, and its work counts.

        With `ops_only`, spans recorded outside an op (during set-up) are
        left out; work counts always cover every span.
        """
        count = len(TARGETS)
        calls, self_ns, total_ns = [0] * count, [0] * count, [0] * count
        mech_runs = [0] * count
        mech_ids = {TARGETS.index(t) for t in MECHANISMS}
        check_ids = {TARGETS.index(t) for t in RUN_COUNTED}
        mech_above = array("i")
        check_above = array("i")
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        for span in range(len(fn)):
            if ops_only and self.op[span] < 0:
                mech_above.append(-1)
                check_above.append(-1)
                continue
            f, p = fn[span], parent[span]
            duration = end[span] - start[span]
            calls[f] += 1
            self_ns[f] += duration
            total_ns[f] += duration
            mech, chk = (-1, -1) if p < 0 else (mech_above[p], check_above[p])
            if p >= 0:
                self_ns[fn[p]] -= duration
            if f in mech_ids and mech < 0 and chk >= 0:
                mech_runs[fn[chk]] += 1
            mech_above.append(span if f in mech_ids else mech)
            check_above.append(span if f in check_ids else chk)
        out = {}
        for index, target in enumerate(TARGETS):
            row = {"calls": calls[index], "self_ns": self_ns[index], "total_ns": total_ns[index]}
            if target in WORK:
                row[WORK[target][0]] = self.work[index]
            if target in RUN_COUNTED:
                row["mech_runs"] = mech_runs[TARGETS.index(target)]
            out[target] = row
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: span, parent, op, name, start_ns, end_ns.

        Times count from the first span's start.
        """
        origin = self.start[0] if self.fn else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_ns,end_ns\n")
            for span in range(len(self.fn)):
                handle.write(f"{span},{self.parent[span]},{self.op[span]},{TARGETS[self.fn[span]]},"
                             f"{self.start[span] - origin},{self.end[span] - origin}\n")
