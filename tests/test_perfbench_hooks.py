"""The benchmark's layer metrics come from hooks on named `dks` functions.

`perfbench/tracing.py` patches each (module, attribute) in its HOOKS list
and reports a layer as 0 when the name is gone.  This test loads that file
by path and installs every hook, so a refactor that drops or renames a
hooked name fails here instead of silently zeroing a benchmark layer.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_hook_finds_its_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.hooked():
        pass
    assert len(tracing.HOOKS) > 0
    assert tracer.missing == []
