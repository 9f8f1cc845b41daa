"""Bit-identical results: the optimization pass changed no simulated output.

The golden digests below were produced by the *pre-optimization* code
(commit 58e56cb — original per-byte HDLC loops, peek/step dispatch
loop, uncached RNG lookups) over the paper's two 120 s workloads at
seed 3 on both paths.  The optimized code must reproduce every packet
log, figure series and summary statistic bit-for-bit, so the digests
must never change; if an intentional behaviour change ever lands,
regenerate them with
``repro.bench.determinism.characterization_digest`` and say why in the
commit.
"""

import pytest

from repro import PATH_ETHERNET, PATH_UMTS, run_characterization, voip_g711
from repro.bench.determinism import characterization_digest, run_digest
from repro.obs import MetricsRegistry

#: (workload, path) → sha256 of every observable run output, recorded
#: on the pre-optimization code.
GOLDEN_DIGESTS = {
    ("voip", PATH_UMTS): "8b69c67747142035cf9b025f6be2b09f69c8581fece97de8fcb8d12d77567891",
    ("voip", PATH_ETHERNET): "2e32d7ec0614e77a2e0ac3cf1af85a267e10f09139ee1a5682d1f0d7bb9d9dfe",
    ("cbr", PATH_UMTS): "4e897b0200b0a16de49598e2f47afb5bc4ce7779d45142422cf3c57aab622a88",
    ("cbr", PATH_ETHERNET): "56b0b8261651a0e2102c7d43d8669eb087a2742e24ae1cef13f11a5cda587b35",
}


@pytest.mark.parametrize("kind,path", sorted(GOLDEN_DIGESTS))
def test_run_outputs_bit_identical_to_pre_optimization_code(kind, path):
    assert characterization_digest(kind, path, seed=3, duration=120.0) == (
        GOLDEN_DIGESTS[(kind, path)]
    )


def test_instrumented_run_matches_fast_path():
    """The engine's no-sink fast path and the metered loop agree bit-for-bit."""
    plain = run_characterization(voip_g711(duration=10.0), path=PATH_UMTS, seed=3)

    metered = run_characterization(
        voip_g711(duration=10.0),
        path=PATH_UMTS,
        seed=3,
        scenario=_metered_scenario(seed=3),
    )
    assert run_digest(plain) == run_digest(metered)


def _metered_scenario(seed):
    from repro import OneLabScenario

    scenario = OneLabScenario(seed=seed)
    scenario.sim.metrics = MetricsRegistry()
    return scenario


def test_run_digest_and_summary_decode_the_flow_once(monkeypatch):
    from repro.traffic.decoder import ItgDecoder

    calls = []
    decode = ItgDecoder.summary

    def counted(self):
        calls.append(self)
        return decode(self)

    monkeypatch.setattr(ItgDecoder, "summary", counted)
    result = run_characterization(voip_g711(duration=2.0), path=PATH_ETHERNET, seed=3)
    run_digest(result)
    assert result.summary.packets_sent > 0
    assert len(calls) == 1
