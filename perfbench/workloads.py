"""The benchmark's workloads: one ``repro`` command each, how to read its
output, and what each layer is predicted to move on it.

Every workload is a closed batch experiment: one client launches the
command and waits for it, so the benchmark reports work completed per
second at the sizes below, not latency at an offered rate.  The seed
reaches the program only through the CLI's own seed flags.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple


@dataclass
class Output:
    """What one finished command produced."""

    data: bytes  # the simulated output that must repeat byte for byte
    jobs: int  # simulation jobs the command ran or served
    failed: int  # jobs the command itself reported as failed
    node_cycles: int  # sum of final_cycle * k**2 over simulated jobs
    merit: Dict[str, float]  # simulated figures of merit (checked, not gated)
    brackets: Dict[str, List[float]]  # saturation brackets per design

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: layer -> the end-to-end metric it should move on this workload
    predictions: Dict[str, str]
    #: trace keys that must record calls (a zero means the tracer missed
    #: the layer, e.g. pool workers that did not inherit it)
    guards: Tuple[str, ...]
    #: (work dir, seed, jobs) -> arguments after ``python -m repro``
    args: Callable[[Path, int, int], List[str]]
    #: (work dir, stdout) -> Output; raises ValueError on a malformed output
    read: Callable[[Path, bytes], Output]


def _cache_node_cycles(cache: Path) -> Tuple[int, int]:
    """(jobs, node cycles) over the result-cache entries in ``cache``."""
    jobs = cycles = 0
    for path in sorted(cache.glob("*.json")):
        entry = json.loads(path.read_text())
        k = entry["identity"]["config"]["k"]
        cycles += entry["result"]["final_cycle"] * k * k
        jobs += 1
    return jobs, cycles


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# -- campaign-faults-k8 -------------------------------------------------
CAMPAIGN_DESIGNS = ("dxbar_dor", "unified_dor")


def _campaign_args(work: Path, seed: int, jobs: int) -> List[str]:
    return [
        "campaign", "run", str(work / "campaign"),
        "--designs", *CAMPAIGN_DESIGNS, "--loads", "0.1",
        "--percents", "0", "50", "100", "--samples", "2", "--k", "8",
        "--warmup", "100", "--measure", "200", "--drain", "100",
        "--seed", str(seed), "--sim-seed", str(seed),
        "--jobs", str(jobs), "--quiet",
    ]


def _campaign_read(work: Path, stdout: bytes) -> Output:
    root = work / "campaign"
    data = (root / "report.json").read_bytes()
    payload = json.loads(data)
    jobs, cycles = _cache_node_cycles(root / "cache")
    merit = {}
    for cell, curve in sorted(payload["report"]["yield_curves"].items()):
        y = curve["100"]
        _check(0.0 <= y <= 1.0, f"yield {y} at 100% faults outside [0, 1]")
        merit[f"yield@100%.{cell}"] = y
    _check(len(merit) == len(CAMPAIGN_DESIGNS), "missing yield curves")
    return Output(data, payload["jobs_total"], payload["jobs_failed"], cycles, merit, {})


# -- saturate-knee-k8 ---------------------------------------------------
SATURATE_DESIGNS = ("dxbar_dor", "buffered4")


def _saturate_args(work: Path, seed: int, jobs: int) -> List[str]:
    # Serial on purpose: with a pool, each bisection round waits for its
    # slowest parallel probe, so the wall time follows whatever else the
    # host runs on the other core.  Speculative probes only pay with a
    # pool, so there are none: 4 probes per design.  With the default
    # threshold (0.95) a 300-cycle window's sampling noise sends some seeds
    # to "below_range" (buffered4, seed 109), so the threshold is 0.9.
    return [
        "saturate", "--root", str(work / "saturate"),
        "--design", *SATURATE_DESIGNS, "-k", "8",
        "--warmup", "100", "--measure", "300", "--drain", "50",
        "--tolerance", "0.08", "--threshold", "0.9", "--seed", str(seed),
        "--jobs", "1", "--speculation", "0", "--quiet",
    ]


def _saturate_read(work: Path, stdout: bytes) -> Output:
    root = work / "saturate"
    data = (root / "saturation.json").read_bytes()
    payload = json.loads(data)
    jobs, cycles = _cache_node_cycles(root / "cache")
    merit, brackets, failed = {}, {}, 0
    for row in payload["designs"]:
        if row["status"] != "converged":
            failed += 1
            continue
        knee = row["saturation_load"]
        _check(0.0 < knee <= row["capacity"], f"knee {knee} outside (0, capacity]")
        merit[f"knee_load.{row['design']}"] = knee
        brackets[row["design"]] = row["bracket"]
    _check(len(payload["designs"]) == len(SATURATE_DESIGNS), "missing designs")
    return Output(data, jobs, failed, cycles, merit, brackets)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="campaign-faults-k8",
        why=(
            "Paper's fault-tolerance study, the most-run path: at load 0.1 "
            "orchestration dominates (pool, batch prewarm, vector replay, "
            "cache, journal); the rerun reads the cache instead of writing it."
        ),
        predictions={
            "runner": "wall_s, cpu_s, resume_s",
            "campaign": "wall_s, resume_s",
            "vector": "wall_s, cpu_s, peak_rss_mb",
            "obs": "wall_s",
            "stats": "wall_s (slightly)",
            "routers": "little",
            "traffic": "little",
        },
        guards=(
            "traffic.tick", "stats.result", "vector.step", "vector.batch",
            "runner.run_specs", "runner.cache_hits", "campaign.plan",
            "campaign.report", "obs.journal",
        ),
        args=_campaign_args,
        read=_campaign_read,
    ),
    Workload(
        name="saturate-knee-k8",
        why=(
            "Serial saturation search on the object walk: router compute, "
            "credits and energy accounting dominate; idle-skipping saves "
            "nothing and the vector layer does no work."
        ),
        predictions={
            "routers": "wall_s, node_cycles_per_s (most)",
            "energy": "wall_s, node_cycles_per_s",
            "link": "wall_s (buffered4 credits)",
            "network": "wall_s",
            "stats": "wall_s (slightly)",
            "traffic": "little",
            "runner": "wall_s, cpu_s, resume_s",
            "saturation": "wall_s",
            "obs": "wall_s",
            "vector": "none",
        },
        guards=(
            "traffic.tick", "routers.step", "routers.latch", "energy.charge",
            "link.step", "link.credit_step", "network.step", "stats.record",
            "stats.result", "runner.exec", "saturation.rounds", "obs.journal",
        ),
        args=_saturate_args,
        read=_saturate_read,
    ),
)}
