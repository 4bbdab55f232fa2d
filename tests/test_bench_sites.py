"""The benchmark's tracer binds to gcnsim functions by module and name.

perfbench/ keeps its own tests outside this suite, so a renamed or deleted
function would only surface when the benchmark worker fails to import.
Loading the tracer resolves every (module, name) in its SITES.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_binding_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    assert tracer.unpatched_problems() == []
