"""The perfbench tracer's patch targets all exist in the program.

``perfbench/tracer.py`` wraps the program's layer entry points by name.
A deleted or renamed target would only fail once a traced benchmark
run installs the tracer; this test resolves every name the way
``Tracer.install`` does, without patching anything.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
POINTS = sorted(
    {(module, target) for module, target, _ in _tracer.SPAN_POINTS + _tracer.COUNT_POINTS}
)


@pytest.mark.parametrize("module_name,target", POINTS)
def test_patch_target_resolves(module_name, target):
    module = importlib.import_module(module_name)
    owner_name, _, attr = target.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(getattr(owner, attr))
