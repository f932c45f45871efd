"""The four benchmark workloads: which CLI calls they make, and how each
call's output is checked.

Every operation ("op") is one `netauction.cli.main(argv)` call. A workload is
a list of cycles, each a list of ops; the timed loop runs whole cycles, so
every run holds the same mix of op kinds whatever its length. Inputs come
from the workload seed only: generator seeds inside `--gen` specs, and the
instance files the auction workloads write during set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from netauction.cli import _parse_gen_spec
from netauction.instance_io import instance_stream, parse_instance
from netauction.removed_sets import robust_mu
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, PROPERTY_NAMES, check_invitation_ic,
                               dna_mu_mechanism, ldm_mechanism, run_properties)

DEFAULT_SEED = 1
# What `verify` ops reported and the check confirmed: property violations
# that replay, by property, and batches refused under the invitation bound.
FINDINGS: Counter = Counter()
NAMES = ("verify-suite", "search-ic", "auction-wide", "auction-deep")

GRAPH = ",topology=graph,density=0.15"
SEARCH_FAMILY = "n=5..7,k=4,depth=3,bias=0.45"
RESERVE = 5


@dataclass(frozen=True)
class Op:
    """One CLI call. `argv` may name set-up files as `{file0}`, `{file1}`, ..."""

    argv: tuple[str, ...]
    kind: str          # "verify", "search" or "run"
    size: int = 0      # verify: --count; search: --budget
    mechanism: str = ""
    reserve: bool = False
    inputs: tuple[str, ...] = ()  # generator specs of the files the argv names

    @property
    def key(self) -> str:
        """The argv with each file named by its generator spec: unique per output."""
        return " ".join(self.argv).format(**{f"file{i}": f"[gen {spec}]" for i, spec in enumerate(self.inputs)})

    def resolve(self, files: list[str]) -> list[str]:
        return [a.format(**{f"file{i}": p for i, p in enumerate(files)}) for a in self.argv]


def verify_op(spec: str, count: int) -> Op:
    return Op(("verify", "--gen", spec, "--count", str(count), "--mechanism", "ldm", "--all"),
              "verify", size=count, mechanism="ldm")


def search_op(mechanism: str, spec: str, budget: int) -> Op:
    return Op(("search", "--mechanism", mechanism, "--gen", spec, "--budget", str(budget)),
              "search", size=budget, mechanism=mechanism)


def run_op(file_index: int, spec: str, mechanism: str, mu: int, reserve: bool) -> Op:
    argv = ["run", f"{{file{file_index}}}", "--mechanism", mechanism, "--mu", str(mu),
            "--format", "json"]
    if reserve:
        argv += ["--reserve", str(RESERVE)]
    inputs = ("",) * file_index + (spec,)
    return Op(tuple(argv), "run", mechanism=mechanism, reserve=reserve, inputs=inputs)


# Instance 0 of this stream fails the literal child-monotonicity premise (the
# known divergence in the README), so every verify-suite cycle exercises exit
# code 1 whatever the workload seed.
PREMISE_GAP_OP = verify_op("seed=370,n=8,k=3", 1)
# Criterion 4's DNA-MU hunt: the counterexample is instance 5086.
HUNT_113_OP = search_op("dna-mu", f"seed=113,{SEARCH_FAMILY}", 100000)

# Instances per verify-suite op, by (topology, n): one count for each k = 1..3.
# Each makes an op take about 100 ms at the reference speed (see run.py):
# (100 ms - 4 ms per call) / the cell's per-instance time, measured on 20
# ops per cell at the seed commit. So the median op averages several
# instances and is not pinned to one instance's cost. Every count is at
# least 2, so the slowest ops, which set op_tail_ms, average two instances.
VERIFY_COUNTS = {
    ("tree", 2): (57, 13, 8), ("tree", 3): (31, 6, 4), ("tree", 4): (18, 3, 2),
    ("tree", 5): (12, 2, 2), ("tree", 6): (9, 2, 2), ("tree", 7): (7, 2, 2),
    ("tree", 8): (5, 2, 2),
    ("graph", 2): (58, 13, 7), ("graph", 3): (26, 5, 4), ("graph", 4): (14, 3, 2),
    ("graph", 5): (9, 2, 2), ("graph", 6): (6, 2, 2), ("graph", 7): (4, 2, 2),
    ("graph", 8): (2, 2, 2),
}


@dataclass
class Workload:
    name: str
    seed: int
    # generator specs of the instance files written during set-up
    inputs: list[str] = field(default_factory=list)
    # cycles of ops; auction workloads fill them once the files exist
    cycles: list[list[Op]] = field(default_factory=list)
    trace_cycles: int = 1
    # seconds one cycle takes at the seed commit at the reference speed (see
    # run.py); a timed run runs round(--seconds / cycle_s) cycles
    cycle_s: float = 1.0
    # generator specs at n and n/2 for the traced run's scaling probe
    probe: tuple[str, str] = ("", "")
    shape: dict = field(default_factory=dict)

    def build_ops(self, files: list[str]) -> None:
        if self.inputs:
            wide = self.name == "auction-wide"
            self.cycles = [[op for i, path in enumerate(files)
                            for op in _auction_ops(i, self.inputs[i], path, wide)]]


def _auction_ops(index: int, spec: str, path: str, wide: bool) -> list[Op]:
    mu = mu_bound(path)
    # Six ops per file, two of them cheap, so the median op lands inside the
    # cluster of the workload's heavy calls rather than between clusters.
    if wide:
        plan = [("dna-mu", mu, False), ("vcg-l1", mu, True), ("ldm", mu, False),
                ("ldm", mu, True), ("ldm", mu + 2, False), ("ldm", mu + 2, True)]
    else:
        plan = [("vcg-l1", mu, False), ("vcg-l1", mu, True), ("dna-mu", mu, False),
                ("ldm", mu, False), ("ldm", mu, True), ("ldm", mu + 2, False)]
    return [run_op(index, spec, *step) for step in plan]


def make(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rng.randrange(1, 10**6)

    if name == "verify-suite":
        # Criterion 3's family (n=2..8, k=1..3, tree and graph) stratified by
        # cell: each cycle has one op per (n, k, topology) cell, so every run
        # sees the whole family in the same proportions.
        cycles = []
        for _ in range(6):
            ops = [verify_op(f"seed={draw()},n={n},k={k}{GRAPH if topo == 'graph' else ''}",
                             counts[k - 1])
                   for (topo, n), counts in VERIFY_COUNTS.items() for k in range(1, 4)]
            cycles.append(ops + [PREMISE_GAP_OP])
        probe = draw()
        return Workload(name, seed, cycles=cycles, trace_cycles=1, cycle_s=7.0,
                        probe=(f"seed={probe},n=8,k=3{GRAPH}", f"seed={probe},n=4,k=3{GRAPH}"),
                        shape={"family": "n=2..8,k=1..3; tree, and graph with density=0.15",
                               "count": "2..58 per op, by cell"})
    if name == "search-ic":
        # Budgets chosen so a DNA-MU and an LDM search take about equally long.
        cycles = []
        for _ in range(8):
            ops = []
            for _pair in range(8):
                ops.append(search_op("dna-mu", f"seed={draw()},{SEARCH_FAMILY}", 300))
                ops.append(search_op("ldm", f"seed={draw()},{SEARCH_FAMILY}", 180))
            cycles.append(ops + [HUNT_113_OP])
        probe = draw()
        return Workload(name, seed, cycles=cycles, trace_cycles=1, cycle_s=3.7,
                        probe=(f"seed={probe},n=7,k=4,depth=3,bias=0.45",
                               f"seed={probe},n=3,k=4,depth=3,bias=0.45"),
                        shape={"family": SEARCH_FAMILY})
    if name == "auction-wide":
        # Five trees: the op cost grows with the layer-1 width, which varies
        # by about 10% from tree to tree, so one run averages over several.
        inputs = [f"seed={draw()},n=800,k=8,depth=6,bias=0.3" for _ in range(5)]
        return Workload(name, seed, inputs=inputs, trace_cycles=1, cycle_s=6.8,
                        probe=(inputs[0], inputs[0].replace("n=800", "n=400")))
    if name == "auction-deep":
        inputs = [f"seed={draw()},n=3200,k=8,depth=6,topology=graph,density=0.000625"]
        return Workload(name, seed, inputs=inputs, trace_cycles=3, cycle_s=1.3,
                        probe=(inputs[0], inputs[0].replace("n=3200", "n=1600")))
    raise ValueError(f"unknown workload {name!r}")


def _reach(doc: dict) -> list[list[str]]:
    """Layers of buyers reachable from the seller by invitations (directed BFS)."""
    buyers = doc["buyers"]
    seen = set(doc["seller_neighbors"])
    layers = [sorted(seen)]
    while layers[-1]:
        nxt = {j for i in layers[-1] for j in buyers[i]["neighbors"] if j not in seen}
        seen |= nxt
        layers.append(sorted(nxt))
    return layers[:-1]


def mu_bound(path: str) -> int:
    """The largest count of invitees who invite anyone: a mu every BFS tree accepts."""
    with open(path, encoding="utf-8") as handle:
        buyers = json.load(handle)["buyers"]
    return max(sum(1 for j in b["neighbors"] if buyers[j]["neighbors"]) for b in buyers.values())


def file_shape(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    layers = _reach(doc)
    return {"n": len(doc["buyers"]), "k": doc["k"], "layer1_width": len(layers[0]) if layers else 0,
            "depth": len(layers)}


_VERIFY_TAIL = re.compile(r"instances: (\d+)  failing: (\d+)")
_PROPERTY_LINE = re.compile(r"  ([a-z-]+)(?: \(.*\))?")
_FOUND = re.compile(r"counterexample at instance (\d+):")
_NOT_FOUND = re.compile(r"no counterexample within (\d+) instances")


def digest(code: int, out: str) -> list:
    return [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]


def check(op: Op, code, out: str, expected: dict | None) -> tuple[int, str]:
    """Items the op completed, and the reason it failed ("" when it did not).

    `expected` maps op keys to the exit code and stdout digest recorded at the
    default seed; ops absent from it are checked by invariants alone.
    """
    if expected is not None and op.key in expected and digest(code, out) != expected[op.key]:
        return 0, f"exit {code} / stdout digest differ from the recorded output"
    if op.kind == "verify":
        return _check_verify(op, code, out)
    if op.kind == "search":
        return _check_search(op, code, out)
    return _check_run(op, code, out)


def _check_verify(op: Op, code, out: str) -> tuple[int, str]:
    if code == 4 and not out:
        # The documented refusal: a buyer invites more buyers than verify
        # enumerates exhaustively. It must be true of some instance of the batch.
        batch = instance_stream(_parse_gen_spec(op.argv[2]), op.size)
        if not any(len(rep.invited) > MAX_INVITES_EXHAUSTIVE
                   for profile in batch for rep in profile.reports.values()):
            return 0, "exit 4 on a batch within the invitation bound"
        FINDINGS["refused-invite-bound"] += 1
        return 0, ""
    lines = out.splitlines()
    tail = _VERIFY_TAIL.fullmatch(lines[-1]) if lines else None
    if tail is None:
        return 0, "no final 'instances: N' line"
    count, failing = int(tail.group(1)), int(tail.group(2))
    if count != op.size:
        return 0, f"instances: {count}, expected {op.size}"
    if code != (1 if failing else 0):
        return 0, f"exit {code} with {failing} failing instances"
    reports = _failing_instances(lines)
    if len(reports) != failing:
        return 0, f"{len(reports)} instance reports for {failing} failing instances"
    for props, fixture in reports:
        if not props:
            return 0, "a failing instance names no property"
        profile = parse_instance(fixture)
        for prop in props:
            # A reported violation must be real: its fixture fails the same
            # check again. Real ones are output, not errors, and are counted.
            if run_properties(profile, op.mechanism, (prop,))[0].ok:
                return 0, f"reported {prop} violation does not replay"
            FINDINGS[prop] += 1
    return count, ""


def _failing_instances(lines: list[str]) -> list[tuple[list[str], str]]:
    """(failing properties, replay fixture) of each instance `verify` reports."""
    reports: list[tuple[list[str], list[str]]] = []
    in_fixture = False
    for line in lines:
        if line.startswith("instance ") and line.endswith(": FAIL"):
            reports.append(([], []))
            in_fixture = False
        elif not reports or line.startswith("instances: "):
            continue
        elif line == "  replay fixture:":
            in_fixture = True
        elif in_fixture:
            reports[-1][1].append(line[4:])
        elif (m := _PROPERTY_LINE.fullmatch(line)) and m.group(1) in PROPERTY_NAMES:
            reports[-1][0].append(m.group(1))
    return [(props, "\n".join(fixture) + "\n") for props, fixture in reports]


def _check_search(op: Op, code, out: str) -> tuple[int, str]:
    lines = out.splitlines()
    first = lines[0] if lines else ""
    if code == 1:
        miss = _NOT_FOUND.fullmatch(first)
        if miss is None or int(miss.group(1)) != op.size:
            return 0, "exit 1 without 'no counterexample within <budget> instances'"
        return op.size, ""
    found = _FOUND.fullmatch(first)
    if code != 0 or found is None:
        return 0, f"exit {code} with first line {first!r}"
    start = next((i for i, line in enumerate(lines) if line == "{"), None)
    if start is None:
        return 0, "no replay fixture printed"
    profile = parse_instance("\n".join(lines[start:]) + "\n")
    if op.mechanism == "dna-mu":
        mech = dna_mu_mechanism()
    else:
        mech = ldm_mechanism(robust_mu(profile))
    if not check_invitation_ic(mech, profile):
        return 0, "reported fixture does not replay under check_invitation_ic"
    return int(found.group(1)) + 1, ""


def _check_run(op: Op, code, out: str) -> tuple[int, str]:
    if code != 0:
        return 0, f"exit {code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return 0, f"stdout is not JSON: {exc}"
    sold = sum(doc["allocation"].values())
    if sold > doc["k"]:
        return 0, f"allocation sums to {sold} > k={doc['k']}"
    if op.mechanism == "ldm" and not op.reserve and sold != doc["k"]:
        return 0, f"ldm without reserve sold {sold} of k={doc['k']}"
    return 1, ""
