"""Meta-tests on the public API: imports, exports, documentation.

Deliverable hygiene: every name a subpackage exports must exist and be
documented, and the top-level convenience surface must stay importable.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

#: ``repro`` and every package below it, found rather than listed, so a
#: new subpackage is checked from the day it lands.
SUBPACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_exported_objects_documented(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{export} lacks a docstring"


def test_every_module_has_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not module.__doc__:
            missing.append(info.name)
    assert missing == []


def test_public_methods_documented():
    """Every public method of every exported class carries a docstring."""
    undocumented = []
    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            obj = getattr(module, export)
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not attr.__doc__:
                    undocumented.append(f"{export}.{attr_name}")
    assert undocumented == []


def test_top_level_quickstart_surface():
    from repro import (  # noqa: F401
        OneLabScenario,
        PATH_ETHERNET,
        PATH_UMTS,
        cbr,
        run_characterization,
        run_repetitions,
        voip_g711,
    )

    assert repro.__version__


def test_version_matches_package_metadata():
    assert repro.__version__ == "1.0.0"
