"""CLI surface: subcommands, exit codes, deterministic output."""

import argparse
import gc
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from netauction import cli
from netauction.cli import _parse_gen_spec, build_parser, main
from netauction.errors import SearchBudgetExceeded
from netauction.instance_io import (instance_stream, parse_instance, random_instance,
                                    serialize_instance)
from netauction.market import compute_market
from netauction.removed_sets import min_valid_mu
from netauction.verify import MECHANISMS, VcgComparison, run_properties

from conftest import DATA, DEEP_META, HUGE_K, chain_profile, sold_out_in_layer_one
from test_generator_oracle import AUCTION_DEEP
from test_io import SHAPE_ERRORS
from test_parse_oracle import DEEP, WIDE

FIG3 = str(DATA / "fig3.json")
FIG4 = str(DATA / "fig4.json")
T4 = str(DATA / "t4.json")
COMB_K1 = str(DATA / "comb_k1.json")
COUNTEREXAMPLE = str(DATA / "dna_mu_counterexample.json")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_ldm_fig3(capsys):
    code, out, _ = run_cli(["run", FIG3, "--mechanism", "ldm"], capsys)
    assert code == 0
    assert "revenue: 9" in out
    assert "b: -4" in out


def test_run_vcg_fig3(capsys):
    code, out, _ = run_cli(["run", FIG3, "--mechanism", "vcg-l1"], capsys)
    assert code == 0
    assert "revenue: 3" in out


def test_run_t4_json_format(capsys):
    code, out, _ = run_cli(["run", T4, "--mechanism", "ldm", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["revenue"] == 5
    assert doc["allocation"] == {"x3": 1}
    assert doc["payments"]["x1"] == -3


def test_run_trace_shows_layer_quantities(capsys):
    code, out, _ = run_cli(["run", FIG3, "--mechanism", "ldm", "--trace"], capsys)
    assert code == 0
    assert "layer 1: SW=12" in out
    assert "layer 2: SW=18" in out


def test_run_graph_instance_matches_tree(capsys):
    code_graph, out_graph, _ = run_cli(["run", FIG4, "--mechanism", "ldm",
                                        "--format", "json"], capsys)
    code_tree, out_tree, _ = run_cli(["run", FIG3, "--mechanism", "ldm",
                                      "--format", "json"], capsys)
    assert code_graph == code_tree == 0
    assert json.loads(out_graph)["payments"] == json.loads(out_tree)["payments"]


@pytest.mark.parametrize("reserve", [[], ["--reserve", "5"]])
def test_ldm_tree_is_an_alias_of_ldm(reserve, capsys):
    docs = {}
    for name in ("ldm-tree", "ldm"):
        code, out, _ = run_cli(["run", FIG4, "--mechanism", name, "--trace",
                                "--format", "json"] + reserve, capsys)
        assert code == 0
        docs[name] = json.loads(out)
        assert docs[name].pop("mechanism") == name
    assert docs["ldm-tree"] == docs["ldm"]


def test_mechanism_choices_are_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "verify", "search"):
        option = next(a for a in commands.choices[command]._actions if a.dest == "mechanism")
        assert list(option.choices) == list(MECHANISMS)


def test_run_dna_mu_refuses_reserve(capsys):
    code, out, err = run_cli(["run", FIG4, "--mechanism", "dna-mu", "--reserve", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "reserve" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--gen", "seed=1,n=3", "--count", "-4", "--mechanism", "ldm"],
    ["compare", "--gen", "seed=3,n=2..5", "--count", "-2"],
    ["search", "--mechanism", "dna-mu", "--gen", "seed=1,n=1,k=1", "--budget", "-1"],
    ["gen", "--seed", "1", "--count", "-1", "-o", "unused.json"],
], ids=["verify-count", "compare-count", "search-budget", "gen-count"])
def test_negative_count_or_budget_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("mechanism", ["ldm", "vcg-l1"])
def test_run_negative_reserve_exits_2(mechanism, tmp_path, capsys):
    # a -3 dummy bid used to pay the lone buyer 3 (revenue -3)
    lone = tmp_path / "lone.json"
    lone.write_text('{"k": 1, "seller_neighbors": ["a"], '
                    '"buyers": {"a": {"values": [5], "neighbors": []}}}')
    code, out, err = run_cli(["run", str(lone), "--mechanism", mechanism,
                              "--reserve", "-3", "--mu", "0"], capsys)
    assert (code, out) == (2, "")
    assert "reserve must be a non-negative integer, got -3" in err


@pytest.mark.parametrize("sweep,message", [
    ("--reserve=-1..2", "reserve must be a non-negative integer, got -1"),
    ("--reserve=5..3", "reserve sweep '5..3' runs downward"),
    ("--reserve=a", "reserve 'a' is not an integer or a lo..hi sweep"),
    ("--reserve=1..x", "reserve '1..x' is not an integer or a lo..hi sweep"),
], ids=["negative", "descending", "not-a-number", "not-a-number-bound"])
def test_compare_bad_reserve_sweep_exits_2(sweep, message, capsys):
    code, out, err = run_cli(["compare", FIG3, sweep], capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--gen", "seed=x", "--mechanism", "ldm"], "'x'"),
    (["verify", "--gen", "seed=1,n=3,density=zz", "--mechanism", "ldm"], "'zz'"),
    (["search", "--mechanism", "ldm", "--gen", "seed=1,k=a..3"], "'a'"),
    (["gen", "--gen", "seed=1,vmax=q", "-o", "unwritten.json"], "'q'"),
    (["gen", "--seed", "1", "--k", "-1", "-o", "unwritten.json"], "bad k range (-1, -1)"),
    (["gen", "--seed", "1", "--vmax", "0", "-o", "unwritten.json"], "v_max must be >= 1"),
    (["gen", "--gen", "seed=1,topology=graph,density=-3", "-o", "unwritten.json"],
     "edge_density must be in [0, 1]"),
    (["gen", "--gen", "seed=1,topology=graph,density=nan", "-o", "unwritten.json"],
     "edge_density must be in [0, 1]"),
    (["gen", "--seed", "1", "--k", "0", "--n", "0", "-o", "unwritten.json"],
     "bad buyer range (0, 0)"),
    # ids must stay below DUMMY_BASE: refused before any buyer is drawn
    (["gen", "--gen", "seed=1,n=1000000001", "-o", "unwritten.json"], "bad buyer range"),
    (["gen", "--seed", "1", "--k", "0", "-o", "unwritten.json"], "bad k range (0, 0)"),
    (["gen", "--gen", "seed=1,n=6,depth=0", "-o", "unwritten.json"], "max_depth must be >= 1, got 0"),
    (["gen", "--seed", "1", "--depth", "-1", "-o", "unwritten.json"],
     "max_depth must be >= 1, got -1"),
    (["gen", "--gen", "seed=1,seed=2,n=3", "-o", "unwritten.json"],
     "generator spec repeats key 'seed'"),
    (["verify", "--gen", "seed=1,n=3, n = 4", "--mechanism", "ldm"],
     "generator spec repeats key 'n'"),
    (["gen", "--gen", "", "-o", "unwritten.json"], "generator spec needs seed=<int>"),
    (["gen", "--gen", "seed=1,n", "-o", "unwritten.json"],
     "generator spec entry 'n' is not key=value"),
    (["gen", "--gen", "seed=1,foo=2,bar=3", "-o", "unwritten.json"],
     "unknown generator keys: bar, foo"),
    # values parse in key-table order, n before k ...
    (["gen", "--gen", "seed=1,k=a,n=b", "-o", "unwritten.json"], "'b'"),
    # ... and unknown keys are named only once every known value parses
    (["gen", "--gen", "seed=1,foo=2,n=x", "-o", "unwritten.json"], "'x'"),
    (["gen", "--gen", "seed=1,n=5..", "-o", "unwritten.json"], "''"),
], ids=["seed", "density", "k-range", "vmax", "gen-k-flag", "gen-vmax-flag",
        "gen-negative-density", "gen-nan-density", "gen-zero-n-and-k", "gen-n-past-dummy-base",
        "gen-zero-k", "gen-zero-depth", "gen-negative-depth-flag", "gen-repeated-key",
        "verify-repeated-key", "gen-empty-spec", "gen-not-key-value", "gen-unknown-keys",
        "gen-key-table-order", "gen-unknown-keys-last", "gen-open-range"])
def test_non_numeric_gen_spec_exits_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", [["verify", "--mechanism", "ldm"], ["compare"]])
@pytest.mark.parametrize("source,message", [
    ([], "give an instance file or --gen"),
    ([T4, "--gen", "seed=1"], "give an instance file or --gen, not both"),
], ids=["neither", "both"])
def test_instance_or_gen_exactly_one(command, source, message, capsys):
    code, out, err = run_cli(command + source, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags,named", [
    (["--n", "9", "--topology", "graph"], "--n, --topology"),
    (["--seed", "0"], "--seed"),
    (["--vmax", "10", "--density", "0.1", "--depth", "2", "--k", "1"], "--k, --vmax, --density, --depth"),
], ids=["n-topology", "default-seed", "four-flags"])
def test_gen_spec_and_generator_flags_exits_2(flags, named, tmp_path, capsys):
    # the flags used to be dropped in silence: this wrote seed 2's 3-buyer tree
    target = tmp_path / "unwritten.json"
    code, out, err = run_cli(["gen", "--gen", "seed=2,n=3", *flags, "-o", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: give --gen or {named}, not both\n"
    assert not target.exists()


def test_gen_flags_keep_their_defaults(tmp_path, capsys):
    # gen's flags are spec keys: a flag not given takes GeneratorConfig's
    # default, the seed 0
    flagged, specified = tmp_path / "flags.json", tmp_path / "spec.json"
    for flags, spec in [
        ([], "seed=0"),
        ([], "seed=0,n=2..8,k=1..3,vmax=10"),
        (["--n", "30", "--topology", "graph"], "seed=0,n=30,topology=graph,density=0.1"),
        (["--seed", "3", "--n", "6", "--k", "2", "--topology", "graph", "--density", "0.3",
          "--depth", "2"], "seed=3,n=6,k=2,topology=graph,density=0.3,depth=2"),
    ]:
        assert run_cli(["gen", *flags, "-o", str(flagged)], capsys)[0] == 0
        assert run_cli(["gen", "--gen", spec, "-o", str(specified)], capsys)[0] == 0
        assert flagged.read_bytes() == specified.read_bytes(), spec


def test_run_invalid_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "seller_neighbors": ["a"], '
                   '"buyers": {"a": {"values": [1, 2], "neighbors": []}}}')
    code, _, err = run_cli(["run", str(bad), "--mechanism", "ldm"], capsys)
    assert code == 2
    assert "non-increasing" in err


@pytest.mark.parametrize("text,message", [
    (HUGE_K, "integer literal has too many digits"),
    (DEEP_META, "arrays or objects nested too deeply"),
], ids=["huge-integer", "deep-nesting"])
def test_run_huge_integer_or_deep_nesting_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["run", str(path), "--mechanism", "ldm"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text,message", SHAPE_ERRORS,
                         ids=["top-level", "buyers", "seller-neighbors"])
def test_run_wrong_instance_shape_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["run", str(path), "--mechanism", "ldm"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["run", "--mechanism", "ldm"],
                                     ["verify", "--mechanism", "ldm", "--all"]],
                         ids=["run", "verify"])
@pytest.mark.parametrize("kind,message", [
    ("directory", "Is a directory"),
    ("utf-16", "not UTF-8 text (invalid start byte at byte 0)"),
    ("latin-1", "not UTF-8 text (invalid continuation byte at byte 24)"),
], ids=["directory", "utf-16", "latin-1"])
def test_unreadable_instance_path_exits_2(command, kind, message, tmp_path, capsys):
    # both used to print a traceback and exit 1, the "violations found" code
    path = tmp_path / "instance.json"
    if kind == "directory":
        path.mkdir()
    else:
        text = '{"k": 1, "labels": ["café"], "seller_neighbors": [], "buyers": {}}'
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le") if kind == "utf-16"
                         else text.encode("latin-1"))
    code, out, err = run_cli([command[0], str(path), *command[1:]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_missing_instance_file_message_is_unchanged(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["run", str(missing), "--mechanism", "ldm"], capsys)
    assert (code, out, err) == (2, "", f"error: [Errno 2] No such file or directory: "
                                       f"'{missing}'\n")


def test_run_long_invitation_chain(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_instance(chain_profile(1500, 2)))
    code, out, _ = run_cli(["run", str(chain), "--mechanism", "ldm", "--format", "json"],
                           capsys)
    assert code == 0
    assert json.loads(out)["allocation"] == {"0": 2}
    code, out, _ = run_cli(["run", str(chain), "--mechanism", "dna-mu", "--format", "json"],
                           capsys)
    assert code == 0
    assert json.loads(out)["allocation"] == {"0": 1, "1": 1}


@pytest.fixture(scope="module")
def benchmark_shapes(tmp_path_factory):
    """The auction benchmarks' wide tree and deep graph, as instance files."""
    paths = []
    for name, text in (("wide", WIDE), ("deep", DEEP)):
        path = tmp_path_factory.mktemp("shapes") / f"{name}.json"
        path.write_text(serialize_instance(random_instance(_parse_gen_spec(text), 0)))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_run_json_is_the_indenting_encoders_output(mechanism, benchmark_shapes, monkeypatch,
                                                   capsys):
    """`run --format json` prints `json.dumps(doc, indent=2, sort_keys=True)`
    of the document it built, byte for byte, with and without the trace and
    a reserve price."""
    docs = []
    build = cli._outcome_doc
    monkeypatch.setattr(cli, "_outcome_doc", lambda *args: docs.append(build(*args)) or docs[-1])
    reserves = [[]] if mechanism == "dna-mu" else [[], ["--reserve", "4"]]
    for path in [FIG3, FIG4, T4, *benchmark_shapes]:
        for extra in ([], ["--trace"]):
            for reserve in reserves:
                code, out, _ = run_cli(["run", path, "--mechanism", mechanism,
                                        "--format", "json", *extra, *reserve], capsys)
                assert code == 0
                assert out == json.dumps(docs[-1], indent=2, sort_keys=True) + "\n"
    assert any("trace" in doc for doc in docs) == mechanism.startswith("ldm")


# Each output file in tests/data/deep_run.sha256, which CI's `sha256sum -c`
# reads too, and the flags that print it after `run deep.json`.
DEEP_RUNS = {
    "deep-ldm.json": ["--mechanism", "ldm"],
    "deep-ldm-reserve5.json": ["--mechanism", "ldm", "--reserve", "5"],
    "deep-vcg-l1.json": ["--mechanism", "vcg-l1"],
    "deep-vcg-l1-reserve5.json": ["--mechanism", "vcg-l1", "--reserve", "5"],
    "deep-dna-mu.json": ["--mechanism", "dna-mu"],
}


def test_run_bytes_on_the_auction_deep_graph_are_pinned(tmp_path, capsys):
    """`run --mu 16 --format json` on the n=3200 graph prints the bytes
    recorded before the collector pause."""
    path = tmp_path / "deep.json"
    path.write_text(serialize_instance(random_instance(_parse_gen_spec(AUCTION_DEEP), 0)))
    pinned = {}
    for line in (DATA / "deep_run.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        pinned[name] = digest
    assert pinned.keys() == DEEP_RUNS.keys()
    for name, flags in DEEP_RUNS.items():
        code, out, _ = run_cli(["run", str(path), *flags, "--mu", "16", "--format", "json"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[name], name


# Each output in tests/data/trace_run.sha256: the instance, the mechanism
# and the flags that print it after `run <instance> --mechanism <m> --trace`.
TRACE_RUNS = {
    "fig3-trace.txt": (FIG3, "ldm", []),
    "fig3-trace.json": (FIG3, "ldm", ["--format", "json"]),
    "fig4-trace.txt": (FIG4, "ldm", []),
    "fig4-trace.json": (FIG4, "ldm", ["--format", "json"]),
    "t4-reserve3-trace.txt": (T4, "ldm", ["--reserve", "3"]),
    "t4-reserve3-trace.json": (T4, "ldm", ["--reserve", "3", "--format", "json"]),
    "comb_k1-trace.txt": (COMB_K1, "ldm", []),
    "comb_k1-trace.json": (COMB_K1, "ldm", ["--format", "json"]),
    "fig3-vcg-l1-reserve3-trace.txt": (FIG3, "vcg-l1", ["--reserve", "3"]),
    "fig3-vcg-l1-reserve3-trace.json": (FIG3, "vcg-l1", ["--reserve", "3", "--format", "json"]),
    "t4-vcg-l1-reserve3-trace.txt": (T4, "vcg-l1", ["--reserve", "3"]),
    "t4-vcg-l1-reserve3-trace.json": (T4, "vcg-l1", ["--reserve", "3", "--format", "json"]),
    "fig3-dna-mu-trace.txt": (FIG3, "dna-mu", []),
    "fig3-dna-mu-trace.json": (FIG3, "dna-mu", ["--format", "json"]),
    "t4-dna-mu-trace.txt": (T4, "dna-mu", []),
    "t4-dna-mu-trace.json": (T4, "dna-mu", ["--format", "json"]),
}


def test_run_trace_bytes_are_pinned(capsys):
    """`run --trace` prints the recorded bytes: for LDM every layer's
    removed set included, on the figures, on t4 with a reserve, and on a
    k = 1 comb whose 101 layers are all processed; for the mechanisms that
    take no mu, no trace at all."""
    pinned = dict(reversed(line.split("  "))
                  for line in (DATA / "trace_run.sha256").read_text().splitlines())
    assert pinned.keys() == TRACE_RUNS.keys()
    for name, (path, mechanism, flags) in TRACE_RUNS.items():
        code, out, _ = run_cli(["run", path, "--mechanism", mechanism, "--trace", *flags],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[name], name
        if mechanism != "ldm":
            assert "layer 1" not in out and '"trace"' not in out, name
        elif name == "comb_k1-trace.json":
            assert out.count('"layer":') == 101


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("instance,flags,code", [
    (FIG3, [], 0),
    (None, [], 2),
    (FIG3, ["--mu", "1"], 3),
], ids=["exit-0", "malformed-exit-2", "mu-too-small-exit-3"])
def test_run_pauses_the_collector_and_restores_it(instance, flags, code, enabled, tmp_path,
                                                  monkeypatch, capsys):
    if instance is None:
        instance = tmp_path / "bad.json"
        instance.write_text('{"k": 2,')
    during = []
    load = cli._load_instance
    monkeypatch.setattr(cli, "_load_instance",
                        lambda path: during.append(gc.isenabled()) or load(path))
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(["run", str(instance), "--mechanism", "ldm", *flags], capsys)[0] == code
        assert (during, gc.isenabled()) == ([False], enabled)
    finally:
        gc.enable()


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_run_leaves_no_cyclic_garbage(mechanism, capsys):
    gc.collect()
    assert run_cli(["run", FIG3, "--mechanism", mechanism, "--format", "json"], capsys)[0] == 0
    assert gc.collect() == 0


def test_run_mu_too_small_exits_3(capsys):
    code, _, err = run_cli(["run", FIG3, "--mechanism", "ldm", "--mu", "1"], capsys)
    assert code == 3
    assert "below the required bound" in err


def test_run_mu_too_small_in_a_layer_ldm_never_processes_exits_3(tmp_path, capsys):
    path = tmp_path / "deep_cp.json"
    path.write_text(serialize_instance(sold_out_in_layer_one()))
    code, out, err = run_cli(["run", str(path), "--mechanism", "ldm", "--mu", "1"], capsys)
    assert (code, out, err) == (3, "", "error: mu=1 is below the required bound 2\n")
    assert run_cli(["run", str(path), "--mechanism", "ldm", "--mu", "2"], capsys)[0] == 0


def test_run_require_mu(tmp_path, capsys):
    doc = json.loads((DATA / "t4.json").read_text())
    del doc["mu"]
    path = tmp_path / "nomu.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["run", str(path), "--mechanism", "ldm", "--require-mu"], capsys)
    assert code == 2
    code, out, err = run_cli(["run", str(path), "--mechanism", "ldm"], capsys)
    assert code == 0
    assert "warning" in err


def counting_tree_builds(monkeypatch):
    """Count `compute_market` calls, each of which builds one BFS tree,
    through every module that imported it."""
    import netauction
    from netauction import market

    calls = []
    original = market.compute_market

    def counted(profile):
        calls.append(1)
        return original(profile)

    for module in (market, *(getattr(netauction, name) for name in
                             ("mechanisms", "verify", "cli", "removed_sets"))):
        if getattr(module, "compute_market", None) is original:
            monkeypatch.setattr(module, "compute_market", counted)
    return calls


def test_defaulted_mu_builds_the_tree_once(tmp_path, monkeypatch, capsys):
    """`run` and `compare` without a mu print what they print at `--mu` the
    market's smallest valid mu, `run` adding its warning, and build no more
    markets: `run` one, `compare` one per row, with or without a mu."""
    names = ("fig3", "fig4", "dna_mu_counterexample", "dna_mu_graph_counterexample")
    mus = {}
    for name in names:
        doc = json.loads((DATA / f"{name}.json").read_text())
        doc.pop("mu", None)
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        mus[name] = min_valid_mu(compute_market(parse_instance(json.dumps(doc))))
    # fig3's largest C^P has 2 members, and so has the BFS tree of fig4's graph
    assert mus == {"fig3": 2, "fig4": 2, "dna_mu_counterexample": 1,
                   "dna_mu_graph_counterexample": 1}
    calls = counting_tree_builds(monkeypatch)
    for name, mu in mus.items():
        path = str(tmp_path / f"{name}.json")
        warning = (f"warning: mu missing, defaulting to min valid bound {mu} "
                   "(post-hoc, not a prior)\n")
        for mechanism in ("ldm", "ldm-tree"):
            for options in (["--trace"], ["--trace", "--format", "json"]):
                for reserve in ([], ["--reserve", "3"]):
                    argv = ["run", path, "--mechanism", mechanism, *options, *reserve]
                    code, pinned, err = run_cli(argv + ["--mu", str(mu)], capsys)
                    assert (code, err) == (0, "")
                    calls.clear()
                    assert run_cli(argv, capsys) == (0, pinned, warning)
                    assert len(calls) == 1
        for reserve, rows in (([], 1), (["--reserve", "0..3"], 4)):
            calls.clear()
            _, pinned, _ = run_cli(["compare", path, "--mu", str(mu), *reserve], capsys)
            assert len(calls) == rows
            calls.clear()
            assert run_cli(["compare", path, *reserve], capsys) == (0, pinned, "")
            assert len(calls) == rows


def test_verify_t4_all_green(capsys):
    code, out, _ = run_cli(["verify", T4, "--mechanism", "ldm", "--all"], capsys)
    assert code == 0
    assert "failing: 0" in out


@pytest.mark.parametrize("instance", [FIG3, T4], ids=["fig3", "t4"])
@pytest.mark.parametrize("mechanism", ["dna-mu", "vcg-l1"])
def test_verify_all_runs_the_properties_the_mechanism_admits(mechanism, instance, capsys):
    admitted = "ir,invite-ic,value-ic,non-wasteful,child-monotonicity"
    listed = run_cli(["verify", instance, "--mechanism", mechanism, "--property", admitted],
                     capsys)
    assert listed == (0, "instances: 1  failing: 0\n", "")
    assert run_cli(["verify", instance, "--mechanism", mechanism, "--all"], capsys) == listed
    code, out, err = run_cli(["verify", instance, "--mechanism", mechanism,
                              "--property", "dominance"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: property 'dominance' requires the ldm mechanism\n"


def test_verify_dna_mu_counterexample_exits_1(capsys):
    code, out, _ = run_cli(["verify", COUNTEREXAMPLE, "--mechanism", "dna-mu",
                            "--property", "invite-ic"], capsys)
    assert code == 1
    assert "invite-ic" in out
    assert "replay fixture" in out


def test_verify_finds_the_readmes_graph_invitation_ic_violation(capsys):
    """LDM is not invitation-IC on every graph (README): in instance 2, b01
    hides b04, who reattaches under b03, and b01's utility rises from 0 to
    1. The hidden invitee's market is set up from the graph, so this pins
    that path's output byte for byte."""
    code, out, _ = run_cli(["verify", "--gen", "seed=696179,n=7,k=1,topology=graph,density=0.15",
                            "--count", "3", "--mechanism", "ldm", "--all"], capsys)
    assert code == 1
    assert "  violation [invitation-ic] buyer b01: utility 0 -> 1\n" in out
    assert "    deviating values: [9]  hidden invites: ['b04']\n" in out
    assert out.endswith("instances: 3  failing: 1\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a48e87e5844270d0745b376d19c3113ed6cca6a3c8726beebfcdcbdd8eb31a1a")


def test_verify_generated_batch(capsys):
    code, out, _ = run_cli(["verify", "--gen", "seed=7,n=2..6,k=1..2", "--count", "25",
                            "--mechanism", "ldm", "--property", "ir,non-wasteful,dominance"],
                           capsys)
    assert code == 0
    assert "instances: 25" in out


@pytest.mark.parametrize("argv, last", [
    (["verify", "--mechanism", "ldm", "--property", "non-wasteful"],
     "instances: 2000  failing: 0\n"),
    (["compare"], "dominance: all rows hold\n"),
], ids=["verify", "compare"])
def test_generated_batches_are_drawn_as_they_are_checked(argv, last, capsys):
    """2,000 instances of `seed=1,n=8,k=3`, which held 9 MiB as a list, are
    drawn one at a time: the batch peaks under 2 MiB of traced memory."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli([*argv, "--gen", "seed=1,n=8,k=3", "--count", "2000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith(last)
    assert peak < 2 * 2**20


def test_verify_on_a_wide_own_tree_holds_no_deviated_markets(capsys):
    """`verify --all` under LDM on a 400-buyer own tree reads every
    deviation from the truthful run, so it keeps no deviated market: the
    check peaks under 8 MiB of traced memory, where one market per
    deviation held 28 MiB."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["verify", "--gen", "seed=1,n=400,k=8,depth=6,bias=0.3",
                                "--count", "1", "--mechanism", "ldm", "--all"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out
    assert peak < 8 * 2**20


def test_verify_error_after_a_failing_instance_prints_nothing(capsys):
    """A failing instance is kept until the batch ends, and an error in a
    later instance still exits with empty stdout. The error is IR's: it
    enumerates every buyer's subsets, where invitation-IC skips a buyer
    DNA-MU's menu certifies."""
    spec = "seed=5,n=5..9,k=1..2,topology=graph,density=0.2"
    flags = ["--mechanism", "dna-mu", "--property", "invite-ic,ir"]
    failing = []
    for index, profile in enumerate(instance_stream(_parse_gen_spec(spec), 200)):
        try:
            results = run_properties(profile, "dna-mu", ("invite-ic", "ir"))
        except SearchBudgetExceeded:
            break
        if not all(r.ok for r in results):
            failing.append(index)
    else:
        pytest.fail("no instance of the stream raises")
    assert failing
    code, out, err = run_cli(["verify", "--gen", spec, "--count", str(index + 1), *flags],
                             capsys)
    assert (code, out, err) == (4, "", "error: 7 invites exceed the exhaustive bound 6\n")
    code, out, _ = run_cli(["verify", "--gen", spec, "--count", str(index), *flags], capsys)
    assert code == 1 and out.startswith(f"instance {failing[0]}: FAIL\n")
    assert out.endswith(f"instances: {index}  failing: {len(failing)}\n")


def test_verify_unknown_property_exits_2(capsys):
    code, _, err = run_cli(["verify", T4, "--mechanism", "ldm",
                            "--property", "bogus"], capsys)
    assert code == 2


def test_search_finds_dna_mu_counterexample(tmp_path, capsys):
    out_path = tmp_path / "found.json"
    code, out, _ = run_cli([
        "search", "--mechanism", "dna-mu",
        "--gen", "seed=113,n=5..7,k=4,depth=3,bias=0.45",
        "--budget", "6000", "-o", str(out_path)], capsys)
    assert code == 0
    assert "counterexample at instance 5086" in out
    assert out_path.exists()
    replay_code, replay_out, _ = run_cli(
        ["verify", str(out_path), "--mechanism", "dna-mu", "--property", "invite-ic"],
        capsys)
    assert replay_code == 1
    # without -o the instance follows the same counterexample lines on stdout
    printed_code, printed, _ = run_cli([
        "search", "--mechanism", "dna-mu",
        "--gen", "seed=113,n=5..7,k=4,depth=3,bias=0.45",
        "--budget", "6000"], capsys)
    lines = out.removesuffix(f"written: {out_path}\n")
    assert lines != out and lines.startswith("counterexample at instance 5086:\n")
    assert (printed_code, printed) == (0, lines + out_path.read_text(encoding="utf-8"))


def test_search_vcg_l1_finds_no_invitation_counterexample(capsys):
    # The DNA-MU counterexample of this stream is instance 5086; first-layer
    # VCG ignores invitations, so hiding one never helps.
    code, out, _ = run_cli(["search", "--mechanism", "vcg-l1",
                            "--gen", "seed=113,n=5..7,k=4,depth=3,bias=0.45",
                            "--budget", "5100"], capsys)
    assert code == 1
    assert out == "no counterexample within 5100 instances\n"


def test_search_exhausted_exits_1(capsys):
    code, out, _ = run_cli(["search", "--mechanism", "dna-mu",
                            "--gen", "seed=1,n=1,k=1", "--budget", "30"], capsys)
    assert code == 1
    assert "no counterexample" in out


def test_exhaustive_budget_exceeded_exits_4(capsys):
    # a buyer of instance 18 invites 7 others; DNA-MU's checks enumerate
    # every invitation subset, so IR alone refuses to run past the bound
    code, out, err = run_cli(["verify", "--gen", "seed=9,n=30..30,k=1..3", "--count", "20",
                              "--mechanism", "dna-mu", "--property", "ir"], capsys)
    assert (code, out, err) == (4, "", "error: 7 invites exceed the exhaustive bound 6\n")


def test_ldm_certifies_trees_past_the_exhaustive_bound(capsys):
    """The same batch under LDM: all 20 instances are their own trees, so
    instance 18's buyer with 7 invitations is certified and walks only her
    empty and full sets, and every property verifies."""
    code, out, _ = run_cli(["verify", "--gen", "seed=9,n=30..30,k=1..3", "--count", "20",
                            "--mechanism", "ldm", "--all"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "instances: 20  failing: 0")


def test_vcg_l1_walks_only_full_sets_past_the_exhaustive_bound(capsys):
    """The same batch under first-layer VCG: no invitation report moves
    layer 1, so every buyer walks only her full set, and instance 18's
    buyer with 7 invitations never meets the bound."""
    code, out, _ = run_cli(["verify", "--gen", "seed=9,n=30..30,k=1..3", "--count", "20",
                            "--mechanism", "vcg-l1", "--all"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "instances: 20  failing: 0")


@pytest.mark.parametrize("mechanism", ["ldm", "dna-mu", "vcg-l1"])
def test_fig4_verifies_at_a_valid_mu(mechanism, capsys):
    """fig4's g invites 7 buyers, but j is not her child: a tree reader
    walks her 6 children's subsets with j kept, and first-layer VCG only
    her full set, so no check meets the exhaustive bound."""
    code, out, err = run_cli(["verify", FIG4, "--mechanism", mechanism, "--all", "--mu", "6"],
                             capsys)
    assert (code, out, err) == (0, "instances: 1  failing: 0\n", "")


@pytest.mark.parametrize("argv", [["run", FIG3, "--mechanism", "ldm"],
                                  ["verify", T4, "--mechanism", "ldm", "--property", "ir"]],
                         ids=["run", "verify"])
def test_timing_goes_to_stderr_only(argv, capsys):
    code, plain, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    code, timed, err = run_cli(["--timing", *argv], capsys)
    assert (code, timed) == (0, plain)
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err)


def test_timing_is_not_printed_on_an_error_exit(capsys):
    code, out, err = run_cli(["--timing", "run", FIG3, "--mechanism", "ldm", "--mu", "1"],
                             capsys)
    assert (code, out) == (3, "")
    assert err == "error: mu=1 is below the required bound 2\n"


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["gen", "--seed", "1", "--n", "7", "--k", "4", "-o", str(a)], capsys)
    run_cli(["gen", "--seed", "1", "--n", "7", "--k", "4", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["k"] == 4 and len(doc["buyers"]) == 7


def test_gen_count_writes_numbered_files(tmp_path, capsys):
    base = tmp_path / "batch.json"
    code, out, _ = run_cli(["gen", "--seed", "3", "--n", "4", "--k", "1",
                            "--count", "3", "-o", str(base)], capsys)
    assert code == 0
    for i in range(3):
        assert (tmp_path / f"batch-{i:03d}.json").exists()


@pytest.mark.parametrize("output,written", [
    ("runs.v2/inst", ["runs.v2/inst-000", "runs.v2/inst-001"]),
    ("runs.v2/inst.json", ["runs.v2/inst-000.json", "runs.v2/inst-001.json"]),
    ("out", ["out-000", "out-001"]),
])
def test_gen_count_numbers_the_file_name_only(output, written, tmp_path, monkeypatch, capsys):
    # a dot in a directory name used to take the number: runs-000.v2/inst
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    (tmp_path / "runs-000.v2").mkdir()
    code, out, err = run_cli(["gen", "--seed", "1", "--n", "4", "--count", "2", "-o", output],
                             capsys)
    assert (code, err) == (0, "")
    assert out == "".join(f"written: {path}\n" for path in written)
    assert all((tmp_path / path).is_file() for path in written)
    assert not any((tmp_path / "runs-000.v2").iterdir())


def test_compare_fig3(capsys):
    code, out, _ = run_cli(["compare", FIG3], capsys)
    assert code == 0
    assert "dominance: all rows hold" in out
    row = [line for line in out.splitlines() if line.strip().startswith("0")][0]
    assert " 9 " in f" {row} " or "9" in row.split()


def test_compare_reserve_sweep(capsys):
    code, out, _ = run_cli(["compare", "--gen", "seed=3,n=2..6", "--count", "10",
                            "--reserve", "0..3"], capsys)
    assert code == 0
    assert "dominance: all rows hold" in out
    assert out.count("\n") >= 41  # header + 40 rows + footer


def test_compare_reports_a_violated_row(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compare_vs_vcg", lambda market, mu: VcgComparison(
        ldm_welfare=1, vcg_welfare=2, ldm_revenue=3, vcg_revenue=4))
    code, out, err = run_cli(["compare", T4], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "       0       -           1           2           3           4        NO        NO",
        "dominance: VIOLATED",
    ]


def test_cli_entrypoint_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "netauction.cli", "run", T4, "--mechanism", "vcg-l1",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["revenue"] == 1


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "netauction", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: netauction")


def test_worker_env_does_not_change_output():
    import os

    cmd = [sys.executable, "-m", "netauction.cli", "verify",
           "--gen", "seed=7,n=2..6,k=1..2", "--count", "20",
           "--mechanism", "ldm", "--property", "ir,dominance"]
    env_one = dict(os.environ, NETAUCTION_THREADS="1")
    env_four = dict(os.environ, NETAUCTION_THREADS="4")
    one = subprocess.run(cmd, capture_output=True, env=env_one)
    four = subprocess.run(cmd, capture_output=True, env=env_four)
    assert one.stdout == four.stdout
    assert one.returncode == four.returncode == 0


def test_byte_identical_reruns():
    commands = [
        ["run", FIG3, "--mechanism", "ldm", "--trace", "--format", "json"],
        ["verify", T4, "--mechanism", "ldm", "--all"],
        ["compare", "--gen", "seed=3,n=2..5", "--count", "5", "--reserve", "0..2"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "netauction.cli"] + cmd,
                           capture_output=True) for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode


def test_cached_parser_keeps_no_state_between_calls(capsys):
    code, traced, _ = run_cli(["run", FIG3, "--mechanism", "ldm", "--trace"], capsys)
    assert code == 0 and "layer 1: SW=12" in traced
    code, plain, _ = run_cli(["run", FIG3, "--mechanism", "ldm"], capsys)
    assert code == 0 and "layer " not in plain
    assert traced.startswith(plain)
    with pytest.raises(SystemExit) as exc:
        main(["run", FIG3])  # no --mechanism: an argparse usage error
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(["run", FIG3, "--mechanism", "ldm"], capsys) == (0, plain, "")


def help_text(parse_args, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [[], ["run"], ["verify"], ["search"], ["gen"], ["compare"]],
                         ids=["top", "run", "verify", "search", "gen", "compare"])
def test_help_matches_a_freshly_built_parser(command, capsys):
    fresh = help_text(build_parser.__wrapped__().parse_args, command, capsys)
    assert fresh.startswith("usage: netauction")
    assert help_text(main, command, capsys) == fresh
    assert help_text(main, command, capsys) == fresh


@pytest.mark.parametrize("spec, short", [
    ("seed=301,n=2..8,k=1..3", 49),
    ("seed=302,n=2..8,k=1..3,topology=graph,density=0.15", 51),
], ids=["trees-seed301", "graphs-seed302"])
def test_dna_mu_leaves_units_unsold_exactly_below_k_valid_buyers(spec, short, capsys):
    """DNA-MU sells at most one unit per buyer, so `non-wasteful` reports
    "units unsold" on every market with fewer valid buyers than K, and on
    no other, over the criterion-3 streams (README)."""
    code, out, _ = run_cli(["verify", "--gen", spec, "--count", "1000", "--mechanism", "dna-mu",
                            "--property", "non-wasteful"], capsys)
    below_k = [index for index, profile in enumerate(instance_stream(_parse_gen_spec(spec), 1000))
               if len(compute_market(profile).valid) < profile.k]
    failing = [int(i) for i in re.findall(r"^instance (\d+): FAIL$", out, re.M)]
    assert len(below_k) == short and failing == below_k and code == 1
    assert out.count("\n  non-wasteful (units unsold)\n") == short
    assert out.endswith(f"instances: 1000  failing: {short}\n")
