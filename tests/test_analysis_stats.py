"""Tests for multi-seed replication statistics and the scaling study."""

import math

import numpy as np
import pytest

from repro.analysis.scaling import scaling_study
from repro.analysis.stats import METRICS, compare, replicate, welch_ttest
from repro.sim.config import SimConfig


def tiny_config(**kw):
    defaults = dict(
        design="dxbar_dor",
        k=4,
        pattern="UR",
        offered_load=0.1,
        warmup_cycles=60,
        measure_cycles=240,
        drain_cycles=600,
        packet_size=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestReplicate:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(tiny_config(), [])

    def test_summaries_for_all_metrics(self):
        out = replicate(tiny_config(), [1, 2, 3])
        assert set(out) == set(METRICS)
        for summary in out.values():
            assert summary.n == 3
            assert len(summary.values) == 3

    def test_single_seed_zero_spread(self):
        out = replicate(tiny_config(), [5])
        assert out["accepted_load"].stddev == 0.0
        assert out["accepted_load"].sem == 0.0

    def test_mean_matches_values(self):
        out = replicate(tiny_config(), [1, 2])
        s = out["avg_flit_latency"]
        assert s.mean == pytest.approx(sum(s.values) / 2)

    def test_ci_contains_mean(self):
        out = replicate(tiny_config(), [1, 2, 3])
        s = out["accepted_load"]
        lo, hi = s.ci95()
        assert lo <= s.mean <= hi


class TestCompare:
    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            compare(tiny_config(), "dxbar_dor", "buffered4", [1])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            compare(tiny_config(), "dxbar_dor", "buffered4", [1, 2], metric="vibes")

    def test_latency_gap_detected(self):
        """DXbar vs Buffered-4 latency: a real, large gap (2 vs 3 cycles a
        hop) that three seeds should resolve decisively."""
        c = compare(
            tiny_config(),
            "dxbar_dor",
            "buffered4",
            [1, 2, 3],
            metric="avg_flit_latency",
        )
        assert c.mean_a < c.mean_b
        assert c.significant(alpha=0.05)

    def test_self_comparison_not_significant(self):
        c = compare(
            tiny_config(),
            "dxbar_dor",
            "dxbar_dor",
            [1, 2, 3],
            metric="accepted_load",
        )
        assert not c.significant(alpha=0.01)


def _welch_grid():
    """Seeded samples with unequal sizes and unequal variances, spanning
    p-values from ~1 down to far below 1e-100."""
    rng = np.random.default_rng(2012)
    for _ in range(200):
        na, nb = (int(n) for n in rng.integers(2, 40, size=2))
        sa, sb = 10.0 ** rng.uniform(-3, 3, size=2)
        shift = rng.normal() * 10.0 ** rng.uniform(-3, 2)
        yield rng.normal(0.0, sa, na), rng.normal(shift, sb, nb)


class TestWelch:
    def test_matches_scipy(self):
        sps = pytest.importorskip("scipy.stats")
        for a, b in _welch_grid():
            t, p = welch_ttest(a, b)
            ref = sps.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(float(ref.statistic), rel=1e-9)
            assert p == pytest.approx(float(ref.pvalue), rel=1e-9)

    @pytest.mark.parametrize(
        "a, b, t, p",
        [
            ([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], math.nan, math.nan),
            ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], -math.inf, 0.0),
            ([2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0], math.inf, 0.0),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.0, 1.0),
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], -2.32379000772445, 0.10272807885839899),
        ],
    )
    def test_edge_cases(self, a, b, t, p):
        """Expected values are what ``scipy.stats.ttest_ind(a, b,
        equal_var=False)`` returns for the same inputs."""
        got_t, got_p = welch_ttest(a, b)
        assert got_t == pytest.approx(t, rel=1e-9, nan_ok=True)
        assert got_p == pytest.approx(p, rel=1e-9, nan_ok=True)

    def test_needs_two_values_per_sample(self):
        with pytest.raises(ValueError):
            welch_ttest([1.0], [1.0, 2.0])


class TestScalingStudy:
    def test_structure(self):
        figs = scaling_study(
            designs=("buffered4", "dxbar_dor"),
            radices=(3, 4),
            offered_load=0.08,
            base=SimConfig(
                warmup_cycles=60, measure_cycles=200, drain_cycles=800, seed=2
            ),
        )
        assert set(figs) == {"latency", "energy"}
        assert figs["latency"].x == [3, 4]

    def test_latency_grows_with_radix(self):
        figs = scaling_study(
            designs=("dxbar_dor",),
            radices=(3, 5),
            offered_load=0.08,
            base=SimConfig(
                warmup_cycles=60, measure_cycles=200, drain_cycles=800, seed=2
            ),
        )
        lat = figs["latency"].series["DXbar DOR"]
        assert lat[1] > lat[0]

    def test_pipeline_gap_compounds_with_radix(self):
        figs = scaling_study(
            designs=("buffered4", "dxbar_dor"),
            radices=(3, 6),
            offered_load=0.08,
            base=SimConfig(
                warmup_cycles=60, measure_cycles=200, drain_cycles=800, seed=2
            ),
        )
        b4 = figs["latency"].series["Buffered 4"]
        dx = figs["latency"].series["DXbar DOR"]
        gap_small = b4[0] - dx[0]
        gap_large = b4[1] - dx[1]
        assert gap_large > gap_small  # one extra stage per hop, more hops
