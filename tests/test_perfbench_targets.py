"""Every function `perfbench/tracing.py` wraps still exists under the name it
looks up, so a rename or deletion fails here rather than after a traced run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_is_found():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    patches = recorder.install()
    recorder.uninstall(patches)
    assert recorder.missing == []
