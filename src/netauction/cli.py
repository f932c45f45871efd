"""Command-line front end: run mechanisms, verify properties, generate
instances, search for counterexamples, and compare against first-layer VCG.

Mechanism names, the properties they admit and how each one runs come from
`verify.MECHANISMS`; `verify` and `search` use the harness's
`run_properties` and `search_counterexample`, so this module only parses
arguments and prints.

Exit codes: 0 success (for `verify`, no violations; for `search`, a
counterexample was found), 1 violations found / nothing found, 2 validation
or parse errors (argparse usage errors included), 3 undersized mu, 4
enumeration budget exceeded. Output is deterministic for fixed inputs and
seeds; timings go to stderr and only with --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import MuTooSmall, NetAuctionError, ParseError, SearchBudgetExceeded, ValidationError
from .instance_io import (
    GeneratorConfig,
    instance_stream,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .market import Market, ReportProfile, compute_market
from .mechanisms import LdmTrace, Outcome, inject_dummies, outcome_welfare
from .verify import (
    MECHANISMS,
    PROPERTY_NAMES,
    DeviationReport,
    compare_vs_vcg,
    run_properties,
    search_counterexample,
)

CLI_PROPERTIES = tuple(p for p in PROPERTY_NAMES if p != "order-independence")


def _non_negative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_instance(path: str) -> ReportProfile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _instances(args) -> list[ReportProfile]:
    """The positional instance file, or `--count` instances drawn from `--gen`."""
    if args.instance is not None and args.gen is not None:
        raise ParseError("give an instance file or --gen, not both")
    if args.instance is not None:
        return [_load_instance(args.instance)]
    if args.gen is None:
        raise ParseError("give an instance file or --gen")
    return list(instance_stream(_parse_gen_spec(args.gen), args.count))


def _resolve_run_mu(profile: ReportProfile, override: int | None,
                    require_mu: bool) -> int | None:
    """--mu, else the instance's mu; None lets LDM run at its BFS tree's
    minimum valid bound, so the tree is built once."""
    if override is not None:
        return override
    if profile.mu is not None:
        return profile.mu
    if require_mu:
        raise ValidationError(None, "instance has no mu and --require-mu is set")
    return None


def _parse_gen_spec(spec: str) -> GeneratorConfig:
    fields: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"generator spec entry {part!r} is not key=value")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()

    def int_range(raw: str) -> tuple[int, int]:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            return (int(lo), int(hi))
        return (int(raw), int(raw))

    if "seed" not in fields:
        raise ParseError("generator spec needs seed=<int>")
    try:
        kwargs: dict = {"seed": int(fields.pop("seed"))}
        if "n" in fields:
            kwargs["buyers"] = int_range(fields.pop("n"))
        if "k" in fields:
            kwargs["k"] = int_range(fields.pop("k"))
        if "vmax" in fields:
            kwargs["v_max"] = int(fields.pop("vmax"))
        if "topology" in fields:
            kwargs["topology"] = fields.pop("topology")
        if "density" in fields:
            kwargs["edge_density"] = float(fields.pop("density"))
        if "depth" in fields:
            kwargs["max_depth"] = int(fields.pop("depth"))
        if "bias" in fields:
            kwargs["seller_bias"] = float(fields.pop("bias"))
        if fields:
            raise ParseError(f"unknown generator keys: {', '.join(sorted(fields))}")
        return _generator_config(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _generator_config(**kwargs) -> GeneratorConfig:
    """A `GeneratorConfig` from command-line input; a bad field is a ParseError."""
    try:
        return GeneratorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _outcome_doc(market: Market, name: str, mu: int,
                 outcome: Outcome, with_trace: bool) -> dict:
    profile = market.profile
    label = profile.label_of
    doc = {
        "mechanism": name,
        "k": profile.k,
        "mu": mu if MECHANISMS[name].layered else None,
        "allocation": {label(i): u for i, u in sorted(outcome.units.items()) if u},
        "payments": {label(i): p for i, p in sorted(outcome.payments.items())},
        "revenue": outcome.revenue,
        "welfare": outcome_welfare(market, outcome),
    }
    if with_trace and isinstance(outcome.trace, LdmTrace):
        doc["trace"] = [
            {
                "layer": rec.layer,
                "removed": sorted(label(i) for i in rec.removed),
                "sw": rec.sw,
                "tentative": {label(i): u for i, u in sorted(rec.tentative_units.items())},
                "sw_minus_d": {label(i): v for i, v in sorted(rec.sw_minus_d.items())},
                "k_remain": rec.k_remain_after,
            }
            for rec in outcome.trace.layers
        ]
    return doc


def _json_text(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte.

    `indent` selects the pure-Python encoder, so the flat top-level maps
    (allocation, payments: one entry per buyer) go through the C encoder
    instead, its item separator carrying their indentation. The other
    values are small or optional and keep the indenting encoder.
    """
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and value:
            body = json.dumps(value, sort_keys=True, separators=(",\n    ", ": "))
            text = "{\n    " + body[1:-1] + "\n  }"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
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


def cmd_run(args) -> int:
    profile = _load_instance(args.instance)
    if args.reserve is not None:
        profile = inject_dummies(profile, args.reserve)
    market = compute_market(profile)
    entry = MECHANISMS[args.mechanism]
    mu = _resolve_run_mu(profile, args.mu, args.require_mu) if entry.layered else 0
    outcome = entry.checked(mu).run(market)
    if mu is None:
        mu = outcome.trace.mu
        print(f"warning: mu missing, defaulting to min valid bound {mu} "
              "(post-hoc, not a prior)", file=sys.stderr)
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
    # with empty stdout.
    all_results = [run_properties(profile, args.mechanism, properties, mu=args.mu)
                   for profile in instances]

    exit_code = 0
    failed = 0
    for index, (profile, results) in enumerate(zip(instances, all_results)):
        bad = [r for r in results if not r.ok]
        if not bad:
            continue
        failed += 1
        exit_code = 1
        print(f"instance {index}: FAIL")
        for result in bad:
            detail = f" ({result.detail})" if result.detail else ""
            print(f"  {result.prop}{detail}")
            for report in result.reports[:3]:
                print("  " + _describe_violation(report, profile).replace("\n", "\n  "))
        print("  replay fixture:")
        print("    " + serialize_instance(profile).replace("\n", "\n    ").rstrip())
    print(f"instances: {len(instances)}  failing: {failed}")
    return exit_code


def cmd_search(args) -> int:
    config = _parse_gen_spec(args.gen)
    entry = MECHANISMS[args.mechanism]
    found = search_counterexample(
        lambda instance: entry.checked(entry.pinned_mu(instance, args.mu)),
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
    config = _parse_gen_spec(args.gen) if args.gen else _generator_config(
        seed=args.seed,
        buyers=(2, 8) if args.n is None else (args.n, args.n),
        k=(1, 3) if args.k is None else (args.k, args.k),
        v_max=args.vmax,
        topology=args.topology,
        edge_density=args.density,
        max_depth=args.depth,
    )
    for index in range(args.count):
        profile = random_instance(config, index)
        text = serialize_instance(profile)
        if args.count == 1:
            path = args.output
        else:
            stem, dot, ext = args.output.rpartition(".")
            path = f"{stem}-{index:03d}{dot}{ext}" if dot else f"{args.output}-{index:03d}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written: {path}")
    return 0


def _parse_reserve_range(raw: str | None) -> list[int | None]:
    if raw is None:
        return [None]
    bounds = raw.split("..", 1) if ".." in raw else (raw, raw)
    try:
        lo, hi = (int(bound) for bound in bounds)
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
        market = compute_market(profile)
        # with neither, LDM runs at each market's minimum valid mu; reserve
        # dummies invite no one, so a reserve leaves that bound unchanged
        mu = args.mu if args.mu is not None else profile.mu
        for r in reserves:
            priced = market if r is None else compute_market(inject_dummies(profile, r))
            rows.append((index, r, compare_vs_vcg(priced, mu)))

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
    p_gen.add_argument("--gen", help="generator spec (overrides the flags below)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--vmax", type=int, default=10)
    p_gen.add_argument("--topology", choices=("tree", "graph"), default="tree")
    p_gen.add_argument("--density", type=float, default=0.1)
    p_gen.add_argument("--depth", type=int, default=None)
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
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MuTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NetAuctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
