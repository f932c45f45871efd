"""perfbench still runs against the package: every function `perfbench/tracing.py`
wraps and every name its scripts import exists, and the verify ops and LDM
search ops it recorded still print what it recorded, so a rename, a deletion
or a changed output fails here rather than after a benchmark run."""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

from netauction import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_tracer_target_is_found():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    patches = recorder.install()
    recorder.uninstall(patches)
    assert recorder.missing == []


def test_every_name_perfbench_imports_exists():
    imported = []
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("netauction"):
                imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    missing = [(module, name) for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def replayed(workload, keep=lambda key: True):
    """The recorded ops of `workload` that `keep` selects, and those of them
    that, run in-process as perfbench runs them, do not exit with the
    recorded code or print the recorded stdout bytes."""
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    ops = {key: record for key, record in expected[workload]["ops"].items() if keep(key)}
    mismatched = []
    for key, record in ops.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(key.split())
            except SystemExit as exc:
                code = exc.code
        found = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]
        if found != record:
            mismatched.append(key)
    return ops, mismatched


def test_verify_suite_ops_print_what_perfbench_recorded():
    ops, mismatched = replayed("verify-suite")
    assert ops
    assert mismatched == []


def test_ldm_search_ops_print_what_perfbench_recorded():
    """search-ic's LDM hunts, each up to 180 instances of the hunt's family,
    set up their deviations through `verify._Truthful` as verify does."""
    ops, mismatched = replayed("search-ic", lambda key: " --mechanism ldm " in key)
    assert len(ops) == 64
    assert mismatched == []
