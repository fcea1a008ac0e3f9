"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layer_tracer  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile helper ----------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    got = run.tail_percentile(samples)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(s > value for s in samples) >= 10


def test_spread_is_iqr_over_median():
    assert run.spread([1.0]) is None
    assert run.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- names ----------------------------------------------------------------
def _declared(section):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def test_metric_names_follow_the_rule():
    names = [n for s in ("end_to_end", "per_layer") for n, _ in _declared(s)]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for section in ("end_to_end", "per_layer"):
        for _, unit in _declared(section):
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_runner():
    assert tuple(_declared("end_to_end")) == run.END_TO_END
    assert tuple(_declared("per_layer")) == run.PER_LAYER
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    for w in BENCHMARK["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# -- tracer ---------------------------------------------------------------
def _repro_namespaces():
    """Every repro module and every class defined in one, with a copy of
    its namespace."""
    owners = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        owners[id(module)] = (module, dict(vars(module)))
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("repro"):
                owners[id(value)] = (value, dict(vars(value)))
    return owners


def test_install_then_uninstall_restores_every_class():
    warm = layer_tracer.install(layer_tracer.Tracer())  # import what it patches
    warm.uninstall()
    before = _repro_namespaces()
    tracer = layer_tracer.install(layer_tracer.Tracer())
    from repro.routers.bless import BlessRouter
    from repro.runner import executor

    assert tracer.installed
    assert BlessRouter.__dict__["step"] is not before[id(BlessRouter)][1]["step"]
    assert executor.run_specs is not before[id(executor)][1]["run_specs"]
    tracer.uninstall()
    assert not tracer.installed
    after = _repro_namespaces()
    assert after.keys() == before.keys()
    for key, (owner, namespace) in before.items():
        assert after[key][1] == namespace, owner


def test_traced_simulation_is_bit_exact():
    from repro.sim.config import SimConfig
    from repro.sim.engine import Simulator

    cfg = SimConfig(design="buffered4", k=4, offered_load=0.2,
                    warmup_cycles=20, measure_cycles=80, drain_cycles=40)
    plain = Simulator(cfg).run().to_dict()
    tracer = layer_tracer.install(layer_tracer.Tracer())
    try:
        traced = Simulator(cfg).run().to_dict()
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.snapshot()["spans"]
    assert spans["network.step"][0] == plain["final_cycle"]  # one per cycle
    assert spans["routers.step"][0] > 0 and spans["link.credit_step"][0] > 0
    calls, total, own = spans["network.step"]
    assert 0.0 < own < total
