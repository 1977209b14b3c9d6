"""The benchmark's tracer wraps plap functions by name and skips a name it
cannot find, so a rename would drop a per-layer metric without an error.
Every traced name must resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_plap_function():
    spec = importlib.util.spec_from_file_location("plap_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        modname, attr = target.split(".")
        mod = importlib.import_module(f"plap.{modname}")
        assert inspect.isfunction(getattr(mod, attr, None)), target
