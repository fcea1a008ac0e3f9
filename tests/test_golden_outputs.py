"""Golden outputs: pinned digests of whole simulation results.

The differential suites (dense == active, vector == object) compare two
walks of the *same* code, so an edit shared by both walks — a router step
both of them call — can drift every simulated byte and still pass them.
This suite pins the sha256 of the canonical ``SimResult.to_dict()`` JSON
for a small matrix instead: every design, the multi-bank and
multi-candidate paths, whole-crossbar, crosspoint and mid-measure faults,
and two k=8 probes near the saturation knee.

A digest changes only when simulated behaviour changes.  If that is the
intent, re-record with ``PYTHONPATH=src python tests/test_golden_outputs.py``
and say in the change description why the outputs moved.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict

import pytest

from repro.designs import DESIGNS
from repro.sim.config import FaultConfig, FaultMapEntry, SimConfig
from repro.sim.engine import Simulator


def _small(design: str, **overrides) -> SimConfig:
    cfg = dict(
        design=design,
        k=4,
        pattern="UR",
        offered_load=0.4,
        warmup_cycles=50,
        measure_cycles=200,
        drain_cycles=300,
        seed=7,
    )
    cfg.update(overrides)
    return SimConfig(**cfg)


def _knee(design: str, load: float) -> SimConfig:
    # The shape of one saturation-search probe (k=8, 100/300/50 windows).
    return SimConfig(
        design=design,
        k=8,
        pattern="UR",
        offered_load=load,
        warmup_cycles=100,
        measure_cycles=300,
        drain_cycles=50,
        seed=1,
    )


def _transient(design: str) -> SimConfig:
    # Whole-crossbar faults that manifest inside the measurement window.
    entries = (
        FaultMapEntry(node=5, crossbar="primary", manifest_cycle=120),
        FaultMapEntry(node=6, crossbar="secondary", manifest_cycle=150),
        FaultMapEntry(node=10, crossbar="primary", manifest_cycle=180),
    )
    return _small(design, offered_load=0.3, faults=FaultConfig(entries=entries))


CASES: Dict[str, Callable[[], SimConfig]] = {
    **{f"{d}/UR/k4": (lambda d=d: _small(d)) for d in DESIGNS},
    "buffered8/UR/k4/load0.6": lambda: _small("buffered8", offered_load=0.6),
    "dxbar_wf/TOR/k4/load0.6": lambda: _small(
        "dxbar_wf", pattern="TOR", offered_load=0.6
    ),
    **{
        f"{d}/faults50": (lambda d=d: _small(
            d, offered_load=0.3, faults=FaultConfig(percent=50, seed=3)
        ))
        for d in ("dxbar_dor", "unified_dor")
    },
    **{
        f"{d}/crosspoint50": (lambda d=d: _small(
            d, offered_load=0.3,
            # Every fault manifests by the end of warmup.
            faults=FaultConfig(
                percent=50, granularity="crosspoint", manifest_window=50, seed=5
            ),
        ))
        for d in ("dxbar_dor", "unified_dor")
    },
    **{f"{d}/transient": (lambda d=d: _transient(d)) for d in ("dxbar_dor", "unified_dor")},
    "buffered4/k8/knee": lambda: _knee("buffered4", 0.28),
    "dxbar_dor/k8/knee": lambda: _knee("dxbar_dor", 0.415),
}


def digest(config: SimConfig) -> str:
    """sha256 of the canonical JSON of one run's result."""
    d = Simulator(config).run().to_dict()
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    'afc/UR/k4': '8df7f974647b41f32fa4ac51227f28cac0ead110a9e8c4751ed6f0638876842d',
    'buffered4/UR/k4': 'b0f90aa0483c8e38c88414fe40dd526f7ef004ce3f61d7642d19c82d7eec6eda',
    'buffered4/k8/knee': '95ddf03256595822fb7669643c2945f7e269cd6c6c1638a9726b1e75a2b44c95',
    'buffered8/UR/k4': '5b51b614a4c4b024973bf2771af994357ff55d567becdd24df56c4d3e1504e62',
    'buffered8/UR/k4/load0.6': 'e380025e6b2b088dccfd2541fac77b3607239dc124f3ff0ff9474e7d1fb0765f',
    'dxbar_dor/UR/k4': '6b18bd45bf6f6d7872cb5f47dbdc8b353773400d15f839df8042361deb257139',
    'dxbar_dor/crosspoint50': '5f7fe350e1d64b436efa674b1f1b7c8663be3b5de182721522e10f199ad76a72',
    'dxbar_dor/faults50': 'a3715ba6e8da42e6273ccdef3806a9f73d0688448f1121f0c77310e197bb42ad',
    'dxbar_dor/k8/knee': '206e4b69e713477eb8a92e6d956f74898ea09a8aeadbb7c3cac288bcadd7c4c0',
    'dxbar_dor/transient': '05a55dbba94c9cd2fd5568c825a280f4dfb4c17b9dd771315069029c1a96f02d',
    'dxbar_wf/TOR/k4/load0.6': 'dd74a53725da3a2bbe8328337640fd068536972c3cd0ffde97dcedde15179d28',
    'dxbar_wf/UR/k4': '8b015cfa81a1aea0e04bf881c303cdc4dcf1bec19ac0edd51d90cd96801b8179',
    'flit_bless/UR/k4': '081f1725cd7ac579da8276f80fb30b587dddeb89d272cd1c4329104a1aeb83cc',
    'scarab/UR/k4': '8d1eff0cd3a0d3764d3b9717d6e1da8913e814303fc816a264147950de0222c8',
    'unified_dor/UR/k4': '02113f15a2eecee6a889193e0b0842b007f7df1ccc9a4b79441dbe9ae419dd67',
    'unified_dor/crosspoint50': 'e9903b560553cadd1b491eb82c3cda2175fd7c50c90ccf1f1a19f8a8349db6c3',
    'unified_dor/faults50': '712c2da9e78871e1a14c60073b573de8e64ae0cba5fad903daf2957149ca84f1',
    'unified_dor/transient': '22ac6651f38995336f4bdd54d58314adba6b3280c8886c6e597d863fdf2a8005',
    'unified_wf/UR/k4': '9e4267ee062a7fa34faece79e2343223333ac635fd50af924f33b0df3f66b791',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert name in GOLDEN, f"no recorded digest for {name}"
    assert digest(CASES[name]()) == GOLDEN[name]


def test_matrix_covers_every_design():
    assert {CASES[n]().design for n in CASES} == set(DESIGNS)


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(CASES[name]())!r},")
