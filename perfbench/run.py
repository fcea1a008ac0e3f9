"""End-to-end benchmark of the repro CLI, with a per-layer traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload campaign-faults-k8 --seed 1 \\
        --seconds 55 --trace 0

Each repetition launches the workload's ``python -m repro`` command on a
fresh directory, as a user would (one client process, ``--jobs`` at most
``nproc``), waits for it, then reruns it over the finished output.  The
run times CLI start-up, then repeats the workload until ``--seconds``
have passed, and reports medians.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced repetitions with
repetitions traced by ``layer_tracer`` (loaded through ``REPRO_PLUGINS``)
and reports the per-layer metrics and the tracing overhead.

Outputs are checked on every repetition: the cold output equals the
rerun's, every repetition (traced or not) gives the same bytes, and under
the reference seed the bytes match ``reference.json``.  A human-readable
report precedes the last stdout line, which is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

All numbers are host time except the simulated figures of merit; the
simulator model is unvalidated against hardware (its only reference is
the paper-shape table in EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layer_tracer import TRACE_DIR_ENV  # noqa: E402
from workloads import WORKLOADS, Output, Workload  # noqa: E402

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_cycles_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("resume_s", "s"),
)

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``;
#: times and counts are per traced repetition.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traffic.tick_s", "s"), ("traffic.on_eject_s", "s"), ("traffic.packets", "count"),
    ("routers.step_s", "s"), ("routers.latch_s", "s"), ("routers.steps", "count"),
    ("routers.flits_sent", "count"), ("routers.active_frac", "fraction"),
    ("energy.charge_s", "s"), ("energy.charges", "count"),
    ("link.step_s", "s"), ("link.steps", "count"), ("link.credit_step_s", "s"),
    ("network.step_s", "s"), ("network.self_s", "s"), ("network.cycles", "count"),
    ("stats.record_s", "s"), ("stats.result_s", "s"),
    ("vector.step_s", "s"), ("vector.cycles", "count"), ("vector.batch_s", "s"),
    ("vector.batch_jobs", "count"),
    ("runner.exec_s", "s"), ("runner.jobs_executed", "count"),
    ("runner.cache_hits", "count"), ("runner.retries", "count"),
    ("runner.jobs_failed", "count"), ("runner.busy_frac", "fraction"),
    ("runner.job_s.p50", "s"), ("runner.job_s.tail", "s"),
    ("runner.cache_get_s", "s"), ("runner.cache_put_s", "s"),
    ("runner.auto_vector_frac", "fraction"),
    ("campaign.plan_s", "s"), ("campaign.report_s", "s"),
    ("saturation.probes", "count"), ("saturation.rounds", "count"),
    ("saturation.useful_frac", "fraction"),
    ("obs.journal_events", "count"), ("obs.journal_s", "s"),
    ("trace_overhead_frac", "fraction"),
)

SETUP_REPEATS = 3
RUN_LIMIT_S = 165.0  # the whole run must end within 180 s
WORK_DIR = ".perfbench"
REFERENCE = HERE / "reference.json"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """The highest of p50/p75/p90/p95/p99/p99.9 (nearest rank) that has at
    least ten samples above its rank, as ``(p, value)``; None when even
    the median has fewer than ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))  # 99.9 is inexact
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


# ----------------------------------------------------------------------
# process measurement
# ----------------------------------------------------------------------
@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(argv: List[str], env: Dict[str, str], work: Path, deadline: float) -> Measured:
    """Run ``argv`` to completion; time it and take the resource usage of
    its whole process tree (the CLI waits for its pool workers, so their
    usage is folded into the CLI's).  The process group is killed at
    ``deadline`` (a ``time.monotonic`` value)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, start_new_session=True
        )
        # A timer enforces the deadline so that the wait blocks: polling
        # would take CPU from the measured command on a small host.
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        killer.daemon = True
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the group may outlive the command
    return Measured(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def base_env(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(root / "src")
    return env


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    resume_s: float = 0.0
    node_cycles: int = 0
    jobs: int = 1
    failed: int = 0
    output: Optional[Output] = None
    problems: List[str] = field(default_factory=list)
    trace: Dict[str, Any] = field(default_factory=dict)


def run_rep(
    wl: Workload, root: Path, work: Path, seed: int, jobs: int,
    traced: bool, deadline: float,
) -> Rep:
    """Cold run on an empty directory, then the rerun over its output."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = base_env(root)
    if traced:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        env["PYTHONPATH"] += os.pathsep + str(HERE)
        env["REPRO_PLUGINS"] = "layer_tracer"
        env[TRACE_DIR_ENV] = str(trace_dir)
    argv = [sys.executable, "-m", "repro", *wl.args(work, seed, jobs)]
    rep = Rep(traced)
    outputs = []
    for phase in ("cold", "rerun"):
        m = measure(argv, env, work, deadline)
        if m.exit_code != 0:
            tail = m.stderr.decode(errors="replace").strip().splitlines()[-3:]
            rep.problems.append(f"{phase} run exited {m.exit_code}: {' | '.join(tail)}")
            rep.failed = rep.jobs
            return rep
        try:
            out = wl.read(work, m.stdout)
        except (OSError, ValueError, KeyError) as exc:
            rep.problems.append(f"{phase} output unreadable: {exc!r}")
            rep.failed = rep.jobs
            return rep
        outputs.append(out)
        if phase == "cold":
            rep.wall_s, rep.cpu_s, rep.peak_rss_mb = m.wall_s, m.cpu_s, m.peak_rss_mb
            rep.node_cycles, rep.jobs, rep.failed = out.node_cycles, out.jobs, out.failed
            rep.output = out
        else:
            rep.resume_s = m.wall_s
    if outputs[0].data != outputs[1].data:
        rep.problems.append("rerun output differs from the cold output")
        rep.failed = rep.jobs
    if traced:
        rep.trace = merge_traces([
            json.loads(p.read_text()) for p in sorted((work / "trace").glob("trace-*.json"))
        ])
    return rep


def merge_traces(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[Any]] = {}
    for part in parts:
        for name, (calls, total, own) in part.get("spans", {}).items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, value in part.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        for name, values in part.get("samples", {}).items():
            samples.setdefault(name, []).extend(values)
    return {"spans": spans, "counts": counts, "samples": samples}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(traced: List[Rep], overhead: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics (per traced repetition) and notes for the report."""
    merged = merge_traces([r.trace for r in traced])
    spans, counts, samples = merged["spans"], merged["counts"], merged["samples"]
    n = len(traced)

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def secs(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    job_s = samples.get("runner.job_s", [])
    tail = tail_percentile(job_s)
    notes = {
        "runner.job_s.tail": (
            f"p{tail[0]:g} of {len(job_s)} jobs" if tail
            else f"median: {len(job_s)} jobs give no percentile with 10 beyond it"
        ),
    }
    probes = samples.get("saturation.probes", [])
    useful = 0
    for rep in traced:
        brackets = rep.output.brackets if rep.output else {}
        for design, load in rep.trace.get("samples", {}).get("saturation.probes", []):
            if any(math.isclose(load, edge, abs_tol=1e-9) for edge in brackets.get(design, ())):
                useful += 1
    per_rep = {
        "traffic.tick_s": secs("traffic.tick"),
        "traffic.on_eject_s": secs("traffic.on_eject"),
        "traffic.packets": counts.get("traffic.packets", 0),
        "routers.step_s": secs("routers.step"),
        "routers.latch_s": secs("routers.latch"),
        "routers.steps": calls("routers.step"),
        "routers.flits_sent": counts.get("routers.flits_sent", 0),
        "energy.charge_s": secs("energy.charge"),
        "energy.charges": calls("energy.charge"),
        "link.step_s": secs("link.step"),
        "link.steps": calls("link.step"),
        "link.credit_step_s": secs("link.credit_step"),
        "network.step_s": secs("network.step"),
        "network.self_s": spans.get("network.step", [0, 0.0, 0.0])[2],
        "network.cycles": calls("network.step"),
        "stats.record_s": secs("stats.record"),
        "stats.result_s": secs("stats.result"),
        "vector.step_s": secs("vector.step"),
        "vector.cycles": calls("vector.step"),
        "vector.batch_s": secs("vector.batch"),
        "vector.batch_jobs": counts.get("vector.batch_jobs", 0),
        "runner.exec_s": secs("runner.exec"),
        "runner.jobs_executed": calls("runner.exec"),
        "runner.cache_hits": counts.get("runner.cache_hits", 0),
        "runner.retries": counts.get("runner.retries", 0),
        "runner.jobs_failed": counts.get("runner.jobs_failed", 0),
        "runner.cache_get_s": secs("runner.cache_get"),
        "runner.cache_put_s": secs("runner.cache_put"),
        "campaign.plan_s": secs("campaign.plan"),
        "campaign.report_s": secs("campaign.report"),
        "saturation.probes": len(probes),
        "saturation.rounds": counts.get("saturation.rounds", 0),
        "obs.journal_events": calls("obs.journal"),
        "obs.journal_s": secs("obs.journal"),
    }
    metrics = {name: value / n for name, value in per_rep.items()}
    metrics.update({
        "routers.active_frac": ratio(calls("routers.step"), counts.get("routers.slots", 0)),
        "runner.busy_frac": ratio(secs("runner.exec"), counts.get("runner.capacity_s", 0)),
        "runner.job_s.p50": statistics.median(job_s) if job_s else 0.0,
        "runner.job_s.tail": tail[1] if tail else (statistics.median(job_s) if job_s else 0.0),
        "runner.auto_vector_frac": ratio(
            counts.get("runner.auto_vector", 0), counts.get("runner.auto_jobs", 0)
        ),
        "saturation.useful_frac": ratio(useful, len(probes)),
        "trace_overhead_frac": overhead,
    })
    return metrics, notes


def missing_layers(wl: Workload, traced: List[Rep]) -> List[str]:
    """Guarded trace keys that recorded no call in some traced repetition."""
    missing = []
    for key in wl.guards:
        for rep in traced:
            spans, counts = rep.trace.get("spans", {}), rep.trace.get("counts", {})
            if not (spans.get(key, [0])[0] or counts.get(key, 0)):
                missing.append(key)
                break
    return missing


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def print_table(title: str, rows: List[List[str]]) -> None:
    print(title)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def summarize(values: List[float]) -> List[str]:
    med = statistics.median(values)
    s = spread(values)
    tail = tail_percentile(values)
    return [
        f"{med:.6g}",
        str(len(values)),
        f"{s:.1%}" if s is not None else "-",
        f"p{tail[0]:g}={tail[1]:.6g}" if tail else "-",
    ]


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--seconds", type=float, default=55.0,
                   help="how long to measure, start-up timing included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = per-layer traced run")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    jobs = min(2, os.cpu_count() or 1)
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    problems: List[str] = []
    setup: List[float] = []
    reps: List[Rep] = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                m = measure([sys.executable, "-m", "repro", "designs"],
                            base_env(root), work, deadline)
                if m.exit_code != 0 or b"dxbar_dor" not in m.stdout:
                    problems.append("`repro designs` failed")
                setup.append(m.wall_s)
        took: Dict[bool, float] = {}
        while True:
            # --trace 1 alternates untraced and traced repetitions.
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.monotonic()
            reps.append(run_rep(wl, root, work / f"rep{len(reps)}", args.seed, jobs,
                                traced, deadline))
            took[traced] = time.monotonic() - t0
            complete = not args.trace or len(reps) >= 2
            upcoming = bool(args.trace) and len(reps) % 2 == 1
            projected = time.monotonic() + took.get(upcoming, took[traced])
            if projected > deadline:
                if not complete:
                    problems.append("run limit reached before a traced repetition")
                break
            if complete and projected - started > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- correctness ---------------------------------------------------
    for i, rep in enumerate(reps):
        problems.extend(f"rep {i}{' (traced)' if rep.traced else ''}: {p}" for p in rep.problems)
    digests = sorted({r.output.digest for r in reps if r.output})
    reference = json.loads(REFERENCE.read_text())
    expected_digest = reference["digests"].get(wl.name)
    output_problems = []
    if len(digests) > 1:
        output_problems.append("repetitions (traced or not) produced different outputs")
    if args.seed == reference["seed"] and digests != [expected_digest]:
        output_problems.append(f"output digest {digests} != reference {expected_digest}")
    problems.extend(output_problems)
    attempted = sum(r.jobs for r in reps)
    # An output that disagrees fails every job that produced it.
    failed = attempted if output_problems else sum(r.failed for r in reps)

    plain = [r for r in reps if not r.traced and r.output]
    traced_reps = [r for r in reps if r.traced and r.output]
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} host={host_facts()}")
    print(f"why: {wl.why}")
    print("closed batch: one client submits the experiment and waits; "
          "host time unless marked simulated; the simulator is unvalidated "
          "against hardware (reference: paper-shape table in EXPERIMENTS.md)")
    print(f"output sha256: {', '.join(digests) or '-'}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if plain and not args.trace:
        values = {
            "setup_s": setup,
            "wall_s": [r.wall_s for r in plain],
            "node_cycles_per_s": [r.node_cycles / r.wall_s for r in plain],
            "cpu_s": [r.cpu_s for r in plain],
            "peak_rss_mb": [r.peak_rss_mb for r in plain],
            "resume_s": [r.resume_s for r in plain],
        }
        rows = [["metric", "median", "n", "iqr/median", "tail", "unit"]]
        for name, unit in END_TO_END:
            rows.append([name, *summarize(values[name]), unit])
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        rows.append(["failed_frac", f"{failed / max(1, attempted):.6g}",
                     str(attempted), "-", "-", "jobs"])
        print_table("end-to-end (median over repetitions)", rows)
    if args.trace and plain and traced_reps:
        overhead = (statistics.median(r.wall_s for r in traced_reps)
                    / statistics.median(r.wall_s for r in plain)) - 1.0
        layer, notes = layer_metrics(traced_reps, overhead)
        missing = missing_layers(wl, traced_reps)
        if missing:
            problems.append(f"layers predicted to run recorded no calls: {missing}")
        rows = [["metric", "value", "unit", "note"]]
        for name, unit in PER_LAYER:
            rows.append([name, f"{layer[name]:.6g}", unit, notes.get(name, "")])
            metrics[name] = {"value": layer[name], "unit": unit}
        print_table(f"per layer (per traced repetition, {len(traced_reps)} traced, "
                    f"{len(plain)} untraced)", rows)
        print_table("predicted layer -> end-to-end effect on this workload",
                    [[layer_name, effect] for layer_name, effect in wl.predictions.items()])
    merit = plain[0].output.merit if plain else {}
    if merit:
        print_table("simulated figures of merit (checked, not gated)",
                    [[k, f"{v:.6g}"] for k, v in merit.items()])
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    expected = END_TO_END if not args.trace else PER_LAYER
    correct = not problems and all(name in metrics for name, _ in expected)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
