"""The rio names that the benchmark in ``perf/`` binds to exist where it looks.

``perf/tracer.py`` wraps a method only if it is in its class's own
``vars()`` (an inherited method is wrapped on the class that defines it,
under that class's name), and ``perf/measure.py`` reads per-layer
metrics by those dotted names.  A rename or a move to a base class would
make such a metric read 0 without any error; this test fails instead.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent / "perf"


def _perf_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perf_tracer", PERF / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = set(tracer.HOOKS) | set(tracer.SERVER_HOOKS)
    names |= set(re.findall(r'\b(?:calls|incl_ns)\("([^"]+)"\)',
                            (PERF / "measure.py").read_text()))
    # perf/traced_server.py patches these two on the class.
    names |= {"server.ServerSession._run_op", "server.ServerSession.cleanup"}
    return sorted(names)


@pytest.mark.parametrize("name", _perf_names())
def test_perf_name_is_defined_where_the_tracer_looks(name):
    layer, *owners, attr = name.split(".")
    module = importlib.import_module(f"rio.{layer}")
    owner = module
    for part in owners:
        owner = vars(owner).get(part)
        assert inspect.isclass(owner) and owner.__module__ == module.__name__, name
    fn = vars(owner).get(attr)
    assert inspect.isfunction(fn), f"{name} is not a function in {owner.__name__}'s own vars()"
    assert fn.__module__ == module.__name__, name
