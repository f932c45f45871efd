"""Command-line front end: run mechanisms, verify properties, generate
instances, search for counterexamples, and compare against first-layer VCG.

Mechanism names, the properties they admit and how each one runs come from
`verify.MECHANISMS`, mu from `verify.given_mu`, and `verify` and `search` use
`run_properties` and `search_counterexample`, so this module only parses
arguments and prints. `run` and `compare` default a missing mu to the
market's `min_valid_mu`, the one place that default is chosen. `GEN_KEYS`
maps each `--gen` spec key to its `GeneratorConfig` field; `gen`'s flags go
through it too, a flag not given taking the field's default (seed 0).

Exit codes: 0 success (for `verify`, no violations; for `search`, a
counterexample was found), 1 violations found / nothing found, 2 validation
or parse errors (argparse usage errors, unreadable and non-UTF-8 instance
files included), 3 undersized mu, 4 enumeration budget exceeded; `main`
prints each library or OS error as `error: ...`, its code from `EXIT_CODES`.
Output is deterministic for fixed inputs and seeds; timings go to stderr and
only with --timing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys
import time
from typing import Iterable

from .errors import MuTooSmall, NetAuctionError, ParseError, SearchBudgetExceeded, ValidationError
from .instance_io import (
    GeneratorConfig,
    instance_stream,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .market import Market, ReportProfile, compute_market
from .mechanisms import Outcome, inject_dummies, outcome_welfare
from .removed_sets import layer_removed_sets, min_valid_mu
from .verify import (
    MECHANISMS,
    PROPERTY_NAMES,
    DeviationReport,
    compare_vs_vcg,
    given_mu,
    run_properties,
    search_counterexample,
)

CLI_PROPERTIES = tuple(p for p in PROPERTY_NAMES if p != "order-independence")
EXIT_CODES = {MuTooSmall: 3, SearchBudgetExceeded: 4}


def _non_negative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_instance(path: str) -> ReportProfile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_instance(text)


def _instances(args) -> Iterable[ReportProfile]:
    """The positional instance file, or `--count` instances drawn from `--gen`,
    each drawn when the caller reaches it."""
    if args.instance is not None and args.gen is not None:
        raise ParseError("give an instance file or --gen, not both")
    if args.instance is not None:
        return [_load_instance(args.instance)]
    if args.gen is None:
        raise ParseError("give an instance file or --gen")
    return instance_stream(_parse_gen_spec(args.gen), args.count)


def _int_range(raw: str) -> tuple[int, int]:
    lo, dots, hi = raw.partition("..")
    return (int(lo), int(hi if dots else lo))


# Each generator spec key, in the order its value is parsed: its `GeneratorConfig`
# field and the parser of its text. `gen`'s flags are these keys, bias aside.
GEN_KEYS = {
    "seed": ("seed", int),
    "n": ("buyers", _int_range),
    "k": ("k", _int_range),
    "vmax": ("v_max", int),
    "topology": ("topology", str),
    "density": ("edge_density", float),
    "depth": ("max_depth", int),
    "bias": ("seller_bias", float),
}


def _generator_config(fields: dict[str, str]) -> GeneratorConfig:
    """A `GeneratorConfig` from spec-key texts, a key left out at its default."""
    try:
        kwargs = {field: parse(fields.pop(key))
                  for key, (field, parse) in GEN_KEYS.items() if key in fields}
        if fields:
            raise ParseError(f"unknown generator keys: {', '.join(sorted(fields))}")
        return GeneratorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_gen_spec(spec: str) -> GeneratorConfig:
    fields: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"generator spec entry {part!r} is not key=value")
        key, value = (x.strip() for x in part.split("=", 1))
        if key in fields:
            raise ParseError(f"generator spec repeats key {key!r}")
        fields[key] = value
    if "seed" not in fields:
        raise ParseError("generator spec needs seed=<int>")
    return _generator_config(fields)


def _outcome_doc(market: Market, name: str, mu: int,
                 outcome: Outcome, with_trace: bool) -> dict:
    profile = market.profile
    label = profile.label_of
    # `label_of` inline over the label map, which holds no reserve dummy: a
    # call per buyer took 15% of this function on an n = 3,200 graph
    names = profile.labels or {}
    doc = {
        "mechanism": name,
        "k": profile.k,
        "mu": mu if MECHANISMS[name].layered else None,
        "allocation": {names[i] if i in names else str(i): u
                       for i, u in sorted(outcome.units.items()) if u},
        "payments": {names[i] if i in names else str(i): p
                     for i, p in sorted(outcome.payments.items())},
        "revenue": outcome.revenue,
        "welfare": outcome_welfare(market, outcome),
    }
    if with_trace and MECHANISMS[name].layered:
        doc["trace"] = [
            {
                "layer": rec.layer,
                "removed": sorted(label(i) for i in r_l),
                "sw": rec.sw,
                "tentative": {label(i): u for i, u in sorted(rec.tentative_units.items())},
                "sw_minus_d": {label(i): v for i, v in sorted(rec.sw_minus_d.items())},
                "k_remain": rec.k_remain_after,
            }
            for rec, r_l in zip(outcome.trace.layers, layer_removed_sets(market, mu))
        ]
    return doc


def _json_text(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte.

    `indent` selects the pure-Python encoder, whose closures form reference
    cycles, so only the nested `--trace` list keeps it. The flat top-level
    maps (allocation, payments: one entry per buyer) go through the C
    encoder, its item separator carrying their indentation; scalars and
    empty maps print the same with or without `indent`.
    """
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and value:
            body = json.dumps(value, sort_keys=True, separators=(",\n    ", ": "))
            text = "{\n    " + body[1:-1] + "\n  }"
        elif isinstance(value, list):
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


def _print_outcome(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(doc))
        return
    print(f"mechanism: {doc['mechanism']}")
    print(f"k: {doc['k']}")
    if doc["mu"] is not None:
        print(f"mu: {doc['mu']}")
    print("allocation:")
    for name, units in doc["allocation"].items():
        print(f"  {name}: {units}")
    print("payments:")
    for name, pay in doc["payments"].items():
        print(f"  {name}: {pay}")
    print(f"revenue: {doc['revenue']}")
    print(f"welfare: {doc['welfare']}")
    for rec in doc.get("trace", ()):
        print(f"layer {rec['layer']}: SW={rec['sw']} k_remain={rec['k_remain']}")
        print(f"  removed: {', '.join(rec['removed']) or '-'}")
        print(f"  tentative: " + (", ".join(f"{n}={u}" for n, u in rec["tentative"].items()) or "-"))
        print(f"  sw_minus_d: " + ", ".join(f"{n}={v}" for n, v in rec["sw_minus_d"].items()))


def _describe_violation(report: DeviationReport, profile: ReportProfile) -> str:
    label = profile.label_of
    hid = sorted(label(j) for j in
                 report.truthful_report.invited - report.deviating_report.invited)
    lines = [
        f"violation [{report.kind}] buyer {label(report.buyer)}: "
        f"utility {report.truthful_utility} -> {report.deviating_utility}",
        f"  deviating values: {list(report.deviating_report.values)}"
        f"  hidden invites: {hid or '-'}",
    ]
    return "\n".join(lines)


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector, and enable it again on exit
    only if it was enabled on entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Nothing `run` builds is cyclic, so reference counting frees it all; the
# collector would only rescan the parsed instance, again and again while it
# is built (`notes/decisions.md`).
@_collector_paused()
def cmd_run(args) -> int:
    profile = _load_instance(args.instance)
    if args.reserve is not None:
        profile = inject_dummies(profile, args.reserve)
    market = compute_market(profile)
    entry = MECHANISMS[args.mechanism]
    mu = given_mu(profile, args.mu) if entry.layered else 0
    if mu is None:
        if args.require_mu:
            raise ValidationError(None, "instance has no mu and --require-mu is set")
        mu = min_valid_mu(market)
        print(f"warning: mu missing, defaulting to min valid bound {mu} "
              "(post-hoc, not a prior)", file=sys.stderr)
    outcome = entry.checked(mu).run(market)
    _print_outcome(_outcome_doc(market, args.mechanism, mu, outcome, args.trace),
                   args.format)
    return 0


def cmd_verify(args) -> int:
    instances = _instances(args)
    if args.all:
        properties = tuple(filter(MECHANISMS[args.mechanism].admits, CLI_PROPERTIES))
    else:
        properties = tuple(args.property.split(","))
    # Every instance is checked before anything is printed, so an error exits
    # with empty stdout; only the failing instances are kept until then.
    count, failing = 0, []
    for count, profile in enumerate(instances, start=1):
        bad = [r for r in run_properties(profile, args.mechanism, properties, mu=args.mu)
               if not r.ok]
        if bad:
            failing.append((count - 1, profile, bad))

    for index, profile, bad in failing:
        print(f"instance {index}: FAIL")
        for result in bad:
            detail = f" ({result.detail})" if result.detail else ""
            print(f"  {result.prop}{detail}")
            for report in result.reports[:3]:
                print("  " + _describe_violation(report, profile).replace("\n", "\n  "))
        print("  replay fixture:")
        print("    " + serialize_instance(profile).replace("\n", "\n    ").rstrip())
    print(f"instances: {count}  failing: {len(failing)}")
    return 1 if failing else 0


def cmd_search(args) -> int:
    config = _parse_gen_spec(args.gen)
    entry = MECHANISMS[args.mechanism]
    checked = functools.cache(entry.checked)  # one mechanism per mu, not per instance
    found = search_counterexample(
        lambda instance: checked(entry.pinned_mu(instance, args.mu)),
        instance_stream(config, args.budget), args.budget, args.value_ic)
    if found is None:
        print(f"no counterexample within {args.budget} instances")
        return 1
    index, report = found
    print(f"counterexample at instance {index}:")
    print(_describe_violation(report, report.instance))
    text = serialize_instance(report.instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written: {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_gen(args) -> int:
    # each given flag goes through the key table as the text of its value
    given = {flag: str(v) for flag in GEN_KEYS if (v := getattr(args, flag, None)) is not None}
    if args.gen is not None:
        if given:
            raise ParseError(f"give --gen or {', '.join('--' + f for f in given)}, not both")
        config = _parse_gen_spec(args.gen)
    else:
        config = _generator_config({"seed": "0", **given})
    for index in range(args.count):
        profile = random_instance(config, index)
        text = serialize_instance(profile)
        if args.count == 1:
            path = args.output
        else:
            # number the file name, not a directory with a dot in its name
            head, slash, name = args.output.rpartition("/")
            stem, dot, ext = name.rpartition(".")
            name = f"{stem}-{index:03d}{dot}{ext}" if dot else f"{name}-{index:03d}"
            path = head + slash + name
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written: {path}")
    return 0


def _parse_reserve_range(raw: str | None) -> list[int | None]:
    if raw is None:
        return [None]
    try:
        lo, hi = _int_range(raw)
    except ValueError:
        raise ParseError(f"reserve {raw!r} is not an integer or a lo..hi sweep") from None
    if lo > hi:
        raise ParseError(f"reserve sweep {raw!r} runs downward")
    return list(range(lo, hi + 1))


def cmd_compare(args) -> int:
    instances = _instances(args)
    reserves = _parse_reserve_range(args.reserve)

    rows = []
    for index, profile in enumerate(instances):
        mu = given_mu(profile, args.mu)
        for r in reserves:
            market = compute_market(profile if r is None else inject_dummies(profile, r))
            # with neither, LDM runs at the first market's minimum valid mu;
            # reserve dummies invite no one, so every row has the same bound
            if mu is None:
                mu = min_valid_mu(market)
            rows.append((index, r, compare_vs_vcg(market, mu)))

    print("instance reserve ldm_welfare vcg_welfare ldm_revenue vcg_revenue welfare>= revenue>=")
    all_dominant = True
    for index, r, cmp in rows:
        wflag = "yes" if cmp.welfare_dominates else "NO"
        rflag = "yes" if cmp.revenue_dominates else "NO"
        if not cmp.revenue_dominates or not cmp.welfare_dominates:
            all_dominant = False
        print(f"{index:8d} {r if r is not None else '-':>7} "
              f"{cmp.ldm_welfare:11d} {cmp.vcg_welfare:11d} "
              f"{cmp.ldm_revenue:11d} {cmp.vcg_revenue:11d} {wflag:>9} {rflag:>9}")
    print(f"dominance: {'all rows hold' if all_dominant else 'VIOLATED'}")
    return 0 if all_dominant else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="netauction",
        description="Multi-unit diffusion auctions and their property harness.",
    )
    parser.add_argument("--timing", action="store_true",
                        help="print elapsed time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mechanism on an instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--mechanism", choices=MECHANISMS, required=True)
    p_run.add_argument("--mu", type=int, default=None)
    p_run.add_argument("--require-mu", action="store_true",
                       help="fail instead of defaulting mu post hoc")
    p_run.add_argument("--reserve", type=int, default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check properties on an instance or a batch")
    p_verify.add_argument("instance", nargs="?")
    p_verify.add_argument("--gen", help="generator spec, e.g. seed=7,n=6,k=2")
    p_verify.add_argument("--count", type=_non_negative, default=100,
                          help="instances to draw from --gen")
    p_verify.add_argument("--mechanism", choices=MECHANISMS, required=True)
    p_verify.add_argument("--property", default="ir",
                          help=f"comma list from: {', '.join(CLI_PROPERTIES)}")
    p_verify.add_argument("--all", action="store_true",
                          help="run every property the mechanism admits")
    p_verify.add_argument("--mu", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="hunt for an incentive counterexample")
    p_search.add_argument("--mechanism", choices=MECHANISMS, required=True)
    p_search.add_argument("--gen", required=True)
    p_search.add_argument("--budget", type=_non_negative, default=100000)
    p_search.add_argument("--value-ic", action="store_true",
                          help="also try value misreports")
    p_search.add_argument("--mu", type=int, default=None)
    p_search.add_argument("-o", "--output", default=None)
    p_search.set_defaults(func=cmd_search)

    p_gen = sub.add_parser("gen", help="write deterministic instance files")
    p_gen.add_argument("--gen", help="generator spec, instead of the flags below")
    # None marks a flag not given: --gen refuses any given flag
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--vmax", type=int)
    p_gen.add_argument("--topology", choices=("tree", "graph"))
    p_gen.add_argument("--density", type=float)
    p_gen.add_argument("--depth", type=int)
    p_gen.add_argument("--count", type=_non_negative, default=1)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = sub.add_parser("compare", help="LDM vs first-layer VCG table")
    p_cmp.add_argument("instance", nargs="?")
    p_cmp.add_argument("--gen")
    p_cmp.add_argument("--count", type=_non_negative, default=20)
    p_cmp.add_argument("--reserve", default=None,
                       help="single value or sweep like 0..5")
    p_cmp.add_argument("--mu", type=int, default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (NetAuctionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 2)
    if args.timing:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
