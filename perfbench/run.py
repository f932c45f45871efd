"""netauction benchmark: drives `netauction.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

`--trace 0` times about `--seconds` worth of whole cycles of CLI calls, once
each, and prints the end-to-end metrics, rescaled to a reference machine
speed. `--trace 1` runs a fixed number of
cycles twice, plain and with spans around the package's public functions, and prints
per-layer calls, self times, work counts, the tracing overhead and scaling
exponents. The last stdout line is always one JSON object with the keys
correct, attempted, failed and metrics. `--record` rewrites expected.json,
the exit codes and stdout digests of every op at the default seed.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
RESULTS = os.path.join(HERE, "results")

SETUP_REPS = 3
# Median seconds of speed_sample() on a shared 2-core x86-64 VM at its usual
# speed: every end-to-end time is rescaled to a machine running at this speed.
REF_PROBE_S = 1.45e-3
# Functions that run on every workload; self time of the others is in the
# per-function table and the results file, where zero is a meaningful value.
SELF_TIMED = (
    "cli.main",
    "instance_io.random_instance",
    "market.compute_market",
    "market.build_bfs_tree",
    "removed_sets.removed_sets_for",
    "removed_sets.min_valid_mu",
    "welfare.constrained_welfare",
    "mechanisms.run_ldm",
    "mechanisms.run_ldm_tree",
)
SCALED = ("mechanisms.run_ldm", "mechanisms.run_vcg_first_layer", "market.build_bfs_tree")
MODULES = ("instance_io", "market", "removed_sets", "welfare", "mechanisms", "verify", "cli")


class Tally:
    """Op times, items and failures of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, op, seconds, items, reason, timed=True):
        self.attempted += 1
        if timed:
            self.times.append(seconds)
            self.items += items
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.key}: {reason}")


class Bench:
    def __init__(self, workload, workdir, expected):
        self.wl = workload
        self.workdir = workdir
        self.expected = expected
        self.strict = expected is not None and workload.seed == workloads.DEFAULT_SEED
        self.recorder = None
        self.files: list[str] = []
        self.speed: list[float] = []

    def call(self, argv):
        """One in-process CLI call: (seconds, exit code, stdout, error)."""
        out = io.StringIO()
        rec = self.recorder
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if rec is not None:
                rec.on = True
            started = time.perf_counter()
            try:
                code, error = cli.main(argv), ""
            except SystemExit as exc:
                code, error = exc.code, ""
            except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                code, error = None, f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.__stderr__)
            elapsed = time.perf_counter() - started
            if rec is not None:
                rec.on = False
        return elapsed, code, out.getvalue(), error

    def execute(self, op, tally, timed=True):
        if self.recorder is not None:
            self.recorder.current_op = tally.attempted
        elapsed, code, out, error = self.call(op.resolve(self.files))
        if error:
            items, reason = 0, error
        elif self.strict and op.key not in self.expected:
            items, reason = 0, "op missing from expected.json at the default seed"
        else:
            items, reason = workloads.check(op, code, out, self.expected)
        tally.add(op, elapsed, items, reason, timed)

    def generate(self):
        """Write the workload's instance files through `netauction gen`."""
        self.files = []
        for index, spec in enumerate(self.wl.inputs):
            path = os.path.join(self.workdir, f"input{index}.json")
            _, code, _, error = self.call(["gen", "--gen", spec, "-o", path])
            if code != 0:
                raise RuntimeError(f"gen --gen {spec} failed: exit {code} {error}")
            self.files.append(path)

    def setup(self, tally):
        """Generate inputs, build the ops and warm up; returns seconds taken."""
        started = time.perf_counter()
        self.generate()
        self.wl.build_ops(self.files)
        self.execute(self.wl.cycles[0][0], tally, timed=False)
        return time.perf_counter() - started

    def timed_loop(self, seconds, tally):
        """Time a fixed number of whole cycles, sized from `seconds`.

        The count depends only on `seconds` and the workload, so every run at
        a seed times the same ops however loaded the machine is. Each op is
        timed once: the machine's speed swings within seconds, and the median
        and the sum over many ops average those swings, where the fastest of
        several tries of one op would pick up how often fast spells came.
        """
        cycles = self.wl.cycles
        count = max(1, round(seconds / self.wl.cycle_s))
        self.speed.append(speed_sample())
        for index in range(count):
            for op in cycles[index % len(cycles)]:
                self.execute(op, tally)
                self.speed.append(speed_sample())
        return count


def tail(times):
    """(percentile, value): the highest percentile with ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(bench, seconds):
    """Time the set-ups and the ops, each rescaled to the reference speed.

    The probe loop is timed before the first op and after every op. An op's
    time is multiplied by REF_PROBE_S over the median of the six probes
    nearest it, so one probe that a preemption slowed does not count, and the
    set-up time by REF_PROBE_S over the run's median probe. The unscaled
    figures are in the notes as raw_*.
    """
    tally = Tally()
    reps = [bench.setup(tally) for _ in range(SETUP_REPS)]
    cycles = bench.timed_loop(seconds, tally)
    speed = bench.speed
    op_s = [t * REF_PROBE_S / statistics.median(speed[max(0, i - 2):i + 4])
            for i, t in enumerate(tally.times)]
    raw_setup_s = IMPORT_S + statistics.median(reps)
    pct, tail_s = tail(op_s)
    metrics = {
        "setup_s": (raw_setup_s * REF_PROBE_S / statistics.median(speed), "s"),
        "items_per_s": (tally.items / sum(op_s), "items/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "ops_timed": len(op_s),
        "cycles": cycles,
        "op_tail_percentile": round(pct, 2),
        "items": tally.items,
        "timed_s": sum(tally.times),
        "error_rate": tally.failed / tally.attempted,
        "findings": dict(workloads.FINDINGS),
        "raw_setup_s": raw_setup_s,
        "raw_items_per_s": tally.items / sum(tally.times),
        "raw_op_p50_ms": statistics.median(tally.times) * 1e3,
        "raw_op_tail_ms": tail(tally.times)[1] * 1e3,
        "setup_reps_s": reps,
        "import_s": IMPORT_S,
    }
    samples = {"op_s": tally.times, "speed_s": speed}
    return tally, metrics, notes, samples


def per_call(fn, min_s=0.05):
    """Fastest of three batches, each repeating fn for at least min_s."""
    best = math.inf
    for _ in range(3):
        reps, started = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_s:
                break
        best = min(best, elapsed / reps)
    return best


def scaling(bench):
    """log2(t(n) / t(n/2)) for SCALED on the workload's probe shape."""
    from netauction.instance_io import parse_instance
    from netauction.market import build_bfs_tree, compute_market
    from netauction.mechanisms import run_ldm, run_vcg_first_layer

    timings = []
    for index, spec in enumerate(bench.wl.probe):
        path = os.path.join(bench.workdir, f"probe{index}.json")
        _, code, _, error = bench.call(["gen", "--gen", spec, "-o", path])
        if code != 0:
            raise RuntimeError(f"gen --gen {spec} failed: exit {code} {error}")
        with open(path, encoding="utf-8") as handle:
            market = compute_market(parse_instance(handle.read()))
        mu = workloads.mu_bound(path)
        timings.append({
            "mechanisms.run_ldm": per_call(lambda: run_ldm(market, mu)),
            "mechanisms.run_vcg_first_layer": per_call(lambda: run_vcg_first_layer(market)),
            "market.build_bfs_tree": per_call(lambda: build_bfs_tree(market)),
        })
    full, half = timings
    return {name: math.log2(full[name] / half[name]) for name in SCALED}


def per_layer(bench):
    """Run the trace ops twice each, plain and traced, alternating which goes first.

    Running the two side by side puts both in the same spell of machine load,
    so their difference is the tracing overhead rather than noise.
    """
    tally = Tally()
    for _ in range(SETUP_REPS):
        bench.setup(tally)
    cycles = bench.wl.cycles
    ops = [op for c in range(bench.wl.trace_cycles) for op in cycles[c % len(cycles)]]
    rec = tracing.Recorder()
    walls = {False: 0.0, True: 0.0}
    # None stands for the set-up step that writes the input files.
    for index, op in enumerate([None] + ops):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            patches = rec.install() if traced else []
            bench.recorder = rec if traced else None
            started = time.perf_counter()
            try:
                if op is None:
                    bench.generate()
                else:
                    bench.execute(op, tally)
            finally:
                walls[traced] += time.perf_counter() - started
                bench.recorder = None
                rec.uninstall(patches)
    plain_s, traced_s = walls[False], walls[True]
    summary = rec.summarise()
    exponents = scaling(bench)

    metrics = {}
    for target, row in summary.items():
        metrics[f"{target}.calls"] = (row["calls"], "count")
        for stat in ("pool_items", "points", "mech_runs"):
            if stat in row:
                metrics[f"{target}.{stat}"] = (row[stat], "count")
    for target in SELF_TIMED:
        metrics[f"{target}.self_s"] = (summary[target]["self_ns"] / 1e9, "s")
    for target in SCALED:
        metrics[f"{target}.scaling_exp"] = (exponents[target], "exponent")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"{bench.wl.name}-spans.csv.gz")
    rec.write(spans)
    notes = {
        "ops_per_pass": len(ops),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "overhead_ratio": traced_s / plain_s,
        "spans": len(rec.fn),
        "spans_file": os.path.relpath(spans, ROOT),
        "missing_targets": rec.missing,
        "findings": dict(workloads.FINDINGS),
    }
    return tally, metrics, notes, rec.summarise(ops_only=True)


def report_layers(summary):
    """Print the per-function table of the timed ops; returns module self shares."""
    wall = summary["cli.main"]["total_ns"] or 1
    print(f"{'function':40} {'calls':>9} {'self_s':>9} {'total_s':>9} {'self%':>6}  work")
    for target, row in summary.items():
        work = ", ".join(f"{k}={v}" for k, v in row.items() if k not in ("calls", "self_ns", "total_ns"))
        print(f"{target:40} {row['calls']:9d} {row['self_ns'] / 1e9:9.3f} {row['total_ns'] / 1e9:9.3f} "
              f"{100 * row['self_ns'] / wall:6.1f}  {work}")
    shares = {m: sum(r["self_ns"] for t, r in summary.items() if t.split(".")[0] == m) / wall
              for m in MODULES}
    print("self time by module (share of cli.main): "
          + ", ".join(f"{m} {100 * s:.1f}%" for m, s in shares.items()))
    return shares


def speed_sample():
    """Seconds a fixed pure-Python loop takes: how fast the machine runs just now.

    The loop touches no data and allocates nothing, so the state the program
    leaves behind (its heap, what it left in the caches) does not change its
    time. A job that built tuples, frozensets and a dict followed the
    program's slowdowns a little more closely, but ran 20% slower inside this
    process than in a fresh one.
    """
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - started


def context(bench):
    lines = 0
    for folder, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    wl = bench.wl
    shape = dict(wl.shape)
    if bench.files:
        shape["files"] = [workloads.file_shape(path) for path in bench.files]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # between the timed ops, or after the traced run
        "speed_probe_ms": statistics.median(bench.speed or [speed_sample() for _ in range(15)]) * 1e3,
        "src_lines": lines,
        "workload": wl.name,
        "seed": wl.seed,
        "inputs": wl.inputs,
        "shape": shape,
    }


def git_commit():
    """HEAD's commit id when the tree is a git checkout, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def load_expected():
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def record(workdir):
    """Run every op of every workload once at the default seed; save the outputs."""
    table = {}
    for name in workloads.NAMES:
        bench = Bench(workloads.make(name, workloads.DEFAULT_SEED), workdir, None)
        bench.generate()
        bench.wl.build_ops(bench.files)
        ops = {}
        for op in (op for cycle in bench.wl.cycles for op in cycle):
            _, code, out, error = bench.call(op.resolve(bench.files))
            _, reason = (0, error) if error else workloads.check(op, code, out, None)
            if reason:
                raise RuntimeError(f"{name}: {op.key}: {reason}")
            ops[op.key] = workloads.digest(code, out)
        table[name] = {"seed": workloads.DEFAULT_SEED, "ops": ops}
        print(f"{name}: {len(ops)} ops, exit codes "
              f"{sorted({code for code, _ in ops.values()})}")
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the default-seed ops")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    workdir = os.path.join(HERE, "_work", f"{args.workload or 'record'}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record:
            record(workdir)
            return 0
        seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
        expected = load_expected().get(args.workload, {})
        table = expected.get("ops", {}) if expected.get("seed") == workloads.DEFAULT_SEED else {}
        bench = Bench(workloads.make(args.workload, seed), workdir, table)
        if args.trace:
            tally, metrics, notes, summary = per_layer(bench)
            samples = None
        else:
            tally, metrics, notes, samples = end_to_end(bench, args.seconds)
            summary = None
        ctx = context(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value if isinstance(value, int) else f'{value:.6g}':>14} {unit}")
    if summary is not None:
        notes["module_self_share"] = report_layers(summary)
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"error_rate {tally.failed / tally.attempted:.4f}")
    for reason in tally.reasons:
        print(f"failed op: {reason}")
    os.makedirs(RESULTS, exist_ok=True)
    result = {"context": ctx, "notes": notes, "metrics": metrics, "layers": summary,
              "samples": samples}
    path = os.path.join(RESULTS, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print("context " + json.dumps(ctx, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "netauction")):
        print(f"perfbench: no package source at {SRC}/netauction", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    _started = time.perf_counter()
    import netauction.cli as cli
    import tracing
    import workloads
    IMPORT_S = time.perf_counter() - _started
    sys.exit(main())
