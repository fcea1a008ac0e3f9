"""Multi-seed replication statistics.

The paper reports single runs; for a reproduction it is worth knowing how
much of an observed gap is seed noise.  :func:`replicate` runs one config
across several seeds and returns mean/stddev/CI summaries for the headline
metrics, and :func:`compare` answers "does design A beat design B beyond
noise?" with Welch's t-test (:func:`welch_ttest`, numpy and :mod:`math`
only, so the package keeps numpy as its sole runtime dependency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..sim.config import SimConfig
from ..sim.engine import run_simulation
from ..sim.stats import SimResult

#: The metrics summarised by :func:`replicate`.
METRICS: Tuple[str, ...] = (
    "accepted_load",
    "avg_flit_latency",
    "avg_packet_latency",
    "energy_per_packet_nj",
    "deflections_per_flit",
)


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread of one metric across replications."""

    name: str
    mean: float
    stddev: float
    n: int
    values: Tuple[float, ...]

    @property
    def sem(self) -> float:
        return self.stddev / math.sqrt(self.n) if self.n > 1 else 0.0

    def ci95(self) -> Tuple[float, float]:
        """95% confidence interval (normal approximation; the replication
        counts here are small, so treat it as a guide, not gospel)."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)


def _metric_value(result: SimResult, name: str) -> float:
    value = getattr(result, name)
    return float(value)


def replicate(
    config: SimConfig, seeds: Sequence[int]
) -> Dict[str, MetricSummary]:
    """Run ``config`` once per seed and summarise the headline metrics."""
    if not seeds:
        raise ValueError("need at least one seed")
    results = [run_simulation(config.with_(seed=s)) for s in seeds]
    out: Dict[str, MetricSummary] = {}
    for name in METRICS:
        values = tuple(_metric_value(r, name) for r in results)
        mean = sum(values) / len(values)
        var = (
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            if len(values) > 1
            else 0.0
        )
        out[name] = MetricSummary(
            name=name, mean=mean, stddev=math.sqrt(var), n=len(values), values=values
        )
    return out


@dataclass(frozen=True)
class Comparison:
    """Welch-test verdict on one metric between two designs."""

    metric: str
    mean_a: float
    mean_b: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def compare(
    config: SimConfig,
    design_a: str,
    design_b: str,
    seeds: Sequence[int],
    metric: str = "accepted_load",
) -> Comparison:
    """Welch's t-test of ``metric`` between two designs on matched seeds."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for a comparison")
    a = [
        _metric_value(run_simulation(config.with_(design=design_a, seed=s)), metric)
        for s in seeds
    ]
    b = [
        _metric_value(run_simulation(config.with_(design=design_b, seed=s)), metric)
        for s in seeds
    ]
    _, p = welch_ttest(a, b)
    return Comparison(
        metric=metric,
        mean_a=sum(a) / len(a),
        mean_b=sum(b) / len(b),
        p_value=p,
    )


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's unequal-variance t-test: ``(t, two-sided p-value)``.

    The statistic uses ddof=1 variances and the degrees of freedom follow
    Welch–Satterthwaite.  When both samples are constant the statistic is
    ``nan`` (p ``nan``) if the means agree and ``±inf`` (p ``0.0``) if they
    differ, the convention of the common statistics libraries.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("Welch's t-test needs at least two values per sample")
    va = float(xa.var(ddof=1)) / xa.size
    vb = float(xb.var(ddof=1)) / xb.size
    diff = float(xa.mean()) - float(xb.mean())
    se2 = va + vb
    if se2 == 0.0:
        t = math.copysign(math.inf, diff) if diff else math.nan
        return t, (0.0 if diff else math.nan)
    t = diff / math.sqrt(se2)
    # Welch–Satterthwaite degrees of freedom.
    df = se2 * se2 / (va * va / (xa.size - 1) + vb * vb / (xb.size - 1))
    return t, _student_t_two_sided(t, df)


def _student_t_two_sided(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom,
    which equals the regularized incomplete beta ``I_x(df/2, 1/2)`` at
    ``x = df / (df + t²)``."""
    t2 = t * t
    x = df / (df + t2)
    if x == 0.0:  # t² overflowed
        return 0.0
    # 1 - x computed directly, so a p-value near 1 keeps its digits.
    return _betainc(df / 2.0, 0.5, x, t2 / (df + t2))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``y = 1 - x``.

    The continued fraction converges fast for ``x < (a + 1) / (a + b + 2)``;
    above that the symmetry ``I_x(a, b) = 1 - I_y(b, a)`` is used.
    """
    if y == 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method (Numerical Recipes §6.4)."""
    tiny, eps = 1e-300, 1e-15
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")
