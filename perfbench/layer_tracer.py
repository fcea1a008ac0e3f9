"""Per-layer tracer for the repro benchmark, loaded through ``REPRO_PLUGINS``.

``python -m repro`` imports every module named in ``REPRO_PLUGINS`` before
it builds its parser.  Importing this module with ``PERFBENCH_TRACE_DIR``
set installs a :class:`Tracer`: it wraps the public methods of each
simulator layer at class level (and rebinds the runner's module-level
entry points), keeps span totals and counts in memory, and writes them to
``<PERFBENCH_TRACE_DIR>/trace-<pid>-<token>.json``.  The driver process
writes at exit; forked pool workers inherit the wrappers, start from
empty totals, and rewrite their file after every job they execute, because
pool workers leave through ``os._exit`` and run no exit handlers.

A span records calls, inclusive seconds and self seconds (inclusive time
minus the time of traced calls made inside it).  A call that re-enters the
same span name, as ``super().step()`` does, is folded into the outer span.

Nothing here changes what the simulator computes: every wrapper calls the
original function with the original arguments and returns its result.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_clock = time.perf_counter


class Tracer:
    """Span and count collector with reversible class-level patches."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, s, self s]
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[List[Any]] = []  # [name, child seconds]
        self._patches: List[Tuple[Any, str, Any]] = []
        self.token = os.urandom(4).hex()
        self.worker = False

    # -- collection ----------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self._stack.clear()

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds to span ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = spans.get(name)
                if agg is None:
                    agg = spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]

        return functools.wraps(fn)(traced)

    def count(
        self, name: str, fn: Callable, weight: Optional[Callable] = None
    ) -> Callable:
        """Wrap ``fn`` so each call adds ``weight(*args)`` (default 1) to
        count ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(*args, **kwargs)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # -- patching ------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_methods(
        self, base: type, attrs: Dict[str, str], *, prefix: bool = False
    ) -> None:
        """Span every method of ``base`` and its subclasses named in
        ``attrs`` (attribute -> span name), where the class defines it
        itself; with ``prefix`` the keys are name prefixes."""
        classes = [base]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for cls in classes:
            for attr in sorted(cls.__dict__):
                name = next(
                    (span for key, span in attrs.items()
                     if (attr.startswith(key) if prefix else attr == key)),
                    None,
                )
                if name is not None and callable(cls.__dict__[attr]):
                    self.patch(cls, attr, lambda fn, n=name: self.span(n, fn))

    def rebind(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace every module-level binding of ``original`` in the loaded
        ``repro`` modules (``from x import f`` copies the reference)."""
        wrapped = make(original)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def flush(self, directory: str) -> None:
        """Atomically (re)write this process's totals."""
        path = Path(directory) / f"trace-{os.getpid()}-{self.token}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# layer wiring
# ----------------------------------------------------------------------
def install(tracer: Tracer, flush_dir: Optional[str] = None) -> Tracer:
    """Wrap the public entry points of every layer.

    With ``flush_dir``, pool workers flush after each executed job.
    """
    import repro.analysis.reliability as reliability
    import repro.campaign.driver  # noqa: F401  (rebind needs it loaded)
    import repro.designs  # noqa: F401  (registers every router class)
    import repro.runner.executor as executor
    import repro.runner.saturation  # noqa: F401
    import repro.traffic.splash2  # noqa: F401  (workload subclasses)
    import repro.traffic.trace  # noqa: F401
    from repro.campaign.spec import CampaignSpec
    from repro.energy.model import EnergyModel
    from repro.obs.journal import JournalWriter
    from repro.routers.base import BaseRouter
    from repro.runner.cache import ResultCache
    from repro.sim.link import CreditChannel, Link
    from repro.sim.network import Network
    from repro.sim.stats import StatsCollector
    from repro.sim.vector.base import VectorNetwork
    from repro.sim.vector.batch import VectorBatchRunner
    from repro.traffic.generator import Workload

    t = tracer
    # traffic
    t.patch_methods(Workload, {"tick": "traffic.tick", "on_eject": "traffic.on_eject"})
    for cls in (Network, VectorNetwork):
        t.patch(cls, "inject_packet", lambda fn: t.count("traffic.packets", fn))
    # routers (repro.routers + repro.core)
    t.patch_methods(BaseRouter, {"step": "routers.step", "latch": "routers.latch"})
    t.patch(BaseRouter, "send", lambda fn: t.count("routers.flits_sent", fn))
    # energy
    t.patch_methods(EnergyModel, {"charge_": "energy.charge"}, prefix=True)
    # link
    t.patch(Link, "step", lambda fn: t.span("link.step", fn))
    t.patch(CreditChannel, "step", lambda fn: t.span("link.credit_step", fn))
    # network: router slots per cycle give the walk's active fraction
    t.patch(Network, "step", lambda fn: t.count(
        "routers.slots", t.span("network.step", fn),
        weight=lambda net: len(net.routers),
    ))
    # stats
    t.patch_methods(StatsCollector, {"record_": "stats.record"}, prefix=True)
    t.patch(StatsCollector, "result", lambda fn: t.span("stats.result", fn))
    # vector
    t.patch(VectorNetwork, "step", lambda fn: t.span("vector.step", fn))
    t.patch(VectorBatchRunner, "run", lambda fn: t.span("vector.batch", fn))
    t.patch(VectorBatchRunner, "__init__", lambda fn: t.count(
        "vector.batch_jobs", fn, weight=lambda self, configs, *a, **k: len(configs),
    ))
    # runner
    t.patch(ResultCache, "get", lambda fn: _cache_get(t, fn))
    t.patch(ResultCache, "contains", lambda fn: t.span("runner.cache_get", fn))
    t.patch(ResultCache, "put", lambda fn: t.span("runner.cache_put", fn))
    t.rebind(executor.execute_spec, lambda fn: _execute_spec(t, fn, flush_dir))
    t.rebind(executor.run_specs, lambda fn: _run_specs(t, fn))
    # saturation: its rounds are the run_specs calls made from its module
    sat = sys.modules["repro.runner.saturation"]
    t.patch(sat, "run_specs", lambda fn: _saturation_round(t, fn))
    # campaign
    t.patch(CampaignSpec, "jobs", lambda fn: t.span("campaign.plan", fn))
    t.rebind(reliability.build_report, lambda fn: t.span("campaign.report", fn))
    # obs
    t.patch(JournalWriter, "write", lambda fn: t.span("obs.journal", fn))
    return t


def _cache_get(t: Tracer, fn: Callable) -> Callable:
    timed = t.span("runner.cache_get", fn)

    def get(self, spec):
        hit = timed(self, spec)
        if hit is not None:
            t.counts["runner.cache_hits"] += 1
        return hit

    return functools.wraps(fn)(get)


def _execute_spec(t: Tracer, fn: Callable, flush_dir: Optional[str]) -> Callable:
    timed = t.span("runner.exec", fn)

    def execute_spec(spec, *args, **kwargs):
        t0 = _clock()
        try:
            return timed(spec, *args, **kwargs)
        finally:
            t.samples["runner.job_s"].append(_clock() - t0)
            if spec.config.backend == "auto":
                t.counts["runner.auto_jobs"] += 1
                if spec.config.resolved_backend() == "vector":
                    t.counts["runner.auto_vector"] += 1
            if t.worker and flush_dir is not None:
                t.flush(flush_dir)

    return functools.wraps(fn)(execute_spec)


def _run_specs(t: Tracer, fn: Callable) -> Callable:
    timed = t.span("runner.run_specs", fn)

    def run_specs(specs, *args, **kwargs):
        t0 = _clock()
        outcomes = timed(specs, *args, **kwargs)
        workers = max(1, kwargs.get("jobs", 1))
        t.counts["runner.capacity_s"] += workers * (_clock() - t0)
        for o in outcomes:
            if o.error is not None:
                t.counts["runner.jobs_failed"] += 1
            if not o.cached and o.attempts > 1:
                t.counts["runner.retries"] += o.attempts - 1
        return outcomes

    return functools.wraps(fn)(run_specs)


def _saturation_round(t: Tracer, fn: Callable) -> Callable:
    def run_specs(specs, *args, **kwargs):
        specs = list(specs)
        t.counts["saturation.rounds"] += 1
        t.samples["saturation.probes"].extend(
            [s.config.design, s.config.offered_load] for s in specs
        )
        return fn(specs, *args, **kwargs)

    return functools.wraps(fn)(run_specs)


def _activate(directory: str) -> Tracer:
    tracer = install(Tracer(), flush_dir=directory)

    def after_fork() -> None:
        tracer.reset()
        tracer.token = os.urandom(4).hex()
        tracer.worker = True

    os.register_at_fork(after_in_child=after_fork)
    atexit.register(lambda: tracer.worker or tracer.flush(directory))
    return tracer


if os.environ.get(TRACE_DIR_ENV):
    TRACER = _activate(os.environ[TRACE_DIR_ENV])
