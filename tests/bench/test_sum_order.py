"""Run digests do not depend on how builtin ``sum()`` rounds.

CPython 3.12 changed ``sum()`` over floats to Neumaier-compensated
addition, so a mean built on it rounds differently from 3.10/3.11.
Every float total that feeds a run digest goes through
:func:`repro.sim.monitor.ordered_sum` instead.  The test below swaps
``builtins.sum`` for an emulation of the 3.12 algorithm and requires
the same digests as the native run.
"""

import builtins
import math

import pytest

from repro import PATH_UMTS, cbr, run_characterization, voip_g711
from repro.analysis.stats import mean
from repro.bench.determinism import run_digest
from repro.sim.monitor import ordered_sum

_native_sum = builtins.sum


def _compensated_sum(iterable, start=0):
    """``sum()`` as CPython 3.12 computes it for ints and floats."""
    items = list(iterable)
    if not all(type(x) in (int, float) for x in [start, *items]):
        return _native_sum(items, start)
    total = start
    index = 0
    while index < len(items) and type(total) is int and type(items[index]) is int:
        total += items[index]
        index += 1
    if index == len(items):
        return total
    f_result = float(total)
    c = 0.0
    for x in items[index:]:
        if type(x) is int:
            f_result += float(x)
            continue
        t = f_result + x
        if abs(f_result) >= abs(x):
            c += (f_result - t) + x
        else:
            c += (x - t) + f_result
        f_result = t
    if c and math.isfinite(c):
        f_result += c
    return f_result


def test_ordered_sum_adds_left_to_right():
    values = [1e16, 1.0, -1e16]
    assert _compensated_sum(values) == 1.0  # the emulation really differs
    assert ordered_sum(values) == 0.0
    assert mean(values) == 0.0


@pytest.mark.parametrize("spec_fn", [voip_g711, cbr], ids=["voip_g711", "cbr"])
def test_run_digest_is_independent_of_builtin_sum(spec_fn, monkeypatch):
    native = run_digest(run_characterization(spec_fn(duration=10.0), path=PATH_UMTS, seed=3))
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    emulated = run_digest(
        run_characterization(spec_fn(duration=10.0), path=PATH_UMTS, seed=3)
    )
    assert emulated == native
