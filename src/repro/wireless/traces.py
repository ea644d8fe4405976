"""Upload-throughput traces for the runtime analysis (paper §V-C, Fig. 8).

The paper collects LTE upload-throughput traces with TestMyNet on a phone —
one measurement every five minutes, forty samples — and replays them against
fixed and dynamically-switched deployment options.  Offline we synthesise
statistically similar traces: log-normal marginals (throughput is positive
and right-skewed) with AR(1) temporal correlation (consecutive measurements
are similar), plus occasional deep fades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class ThroughputSample:
    """One throughput measurement: time offset (s) and uplink speed (Mbps)."""

    time_s: float
    uplink_mbps: float


class ThroughputTrace:
    """An ordered sequence of throughput measurements."""

    def __init__(self, samples: Sequence[ThroughputSample], name: str = "trace"):
        if not samples:
            raise ValueError("a trace requires at least one sample")
        times = [s.time_s for s in samples]
        if any(t1 > t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("trace samples must be ordered by time")
        self.samples: Tuple[ThroughputSample, ...] = tuple(samples)
        self.name = name

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[ThroughputSample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> ThroughputSample:
        return self.samples[index]

    @property
    def uplinks_mbps(self) -> np.ndarray:
        """Throughput values as an array."""
        return np.array([s.uplink_mbps for s in self.samples])

    @property
    def mean_mbps(self) -> float:
        """Mean uplink throughput over the trace."""
        return float(self.uplinks_mbps.mean())

    @property
    def min_mbps(self) -> float:
        """Minimum uplink throughput over the trace."""
        return float(self.uplinks_mbps.min())

    @property
    def max_mbps(self) -> float:
        """Maximum uplink throughput over the trace."""
        return float(self.uplinks_mbps.max())

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "samples": [
                {"time_s": s.time_s, "uplink_mbps": s.uplink_mbps} for s in self.samples
            ],
        }

    @classmethod
    def from_values(
        cls,
        uplinks_mbps: Sequence[float],
        period_s: float = 300.0,
        name: str = "trace",
    ) -> "ThroughputTrace":
        """Build a trace from raw throughput values sampled at a fixed period."""
        require_positive(period_s, "period_s")
        samples = [
            ThroughputSample(time_s=i * period_s, uplink_mbps=float(v))
            for i, v in enumerate(uplinks_mbps)
        ]
        return cls(samples, name=name)


def ar1_uplinks(
    mean_mbps: Sequence[float],
    ticks: int,
    rng: np.random.Generator,
    *,
    volatility: float = 0.45,
    correlation: float = 0.6,
    fade_probability: float = 0.05,
    fade_factor: float = 0.15,
) -> np.ndarray:
    """``(ticks, clients)`` uplink throughputs of the synthetic LTE process.

    Each client's log-throughput is an AR(1) random walk with stationary
    mean ``log(mean_mbps[client])`` and stationary standard deviation
    ``volatility``; occasional deep fades multiply the throughput by
    ``fade_factor`` to mimic coverage holes, and no value falls below
    0.05 Mbps.  The whole fleet advances with one vector draw per tick, so
    a one-client call draws exactly what a scalar loop would.

    Parameters
    ----------
    mean_mbps:
        Median throughput of each client's stationary distribution.
    ticks:
        Number of samples per client.
    rng:
        Generator the start values, innovations and fades are drawn from,
        in that order per tick.
    volatility:
        Standard deviation of log-throughput.
    correlation:
        AR(1) coefficient in [0, 1); higher values give smoother traces.
    fade_probability / fade_factor:
        Probability and depth of deep-fade events.
    """
    means = np.asarray(mean_mbps, dtype=np.float64)
    if not np.all(means > 0):
        raise ValueError(f"mean_mbps must be positive, got {mean_mbps}")
    if not (0.0 <= correlation < 1.0):
        raise ValueError(f"correlation must be in [0, 1), got {correlation}")
    clients = means.size
    log_mean = np.log(means)
    innovation_std = volatility * np.sqrt(1.0 - correlation**2)
    log_value = rng.normal(log_mean, volatility)
    uplinks = np.empty((ticks, clients), dtype=np.float64)
    for tick in range(ticks):
        log_value = (
            correlation * log_value
            + (1.0 - correlation) * log_mean
            + rng.normal(0.0, innovation_std, size=clients)
        )
        values = np.exp(log_value)
        fades = rng.random(clients) < fade_probability
        uplinks[tick] = np.maximum(np.where(fades, values * fade_factor, values), 0.05)
    return uplinks


def generate_lte_trace(
    num_samples: int = 40,
    period_s: float = 300.0,
    mean_mbps: float = 8.0,
    *,
    seed: SeedLike = None,
    name: str = "lte-trace",
    **process: float,
) -> ThroughputTrace:
    """Generate a synthetic LTE upload-throughput trace.

    One client of :func:`ar1_uplinks`: log-normal marginals with AR(1)
    temporal correlation and occasional deep fades.  Defaults match the
    paper's collection protocol: 40 samples taken every 5 minutes.

    Parameters
    ----------
    num_samples / period_s:
        Trace length and sampling period.
    mean_mbps:
        Median throughput of the stationary distribution.
    process:
        ``volatility``, ``correlation``, ``fade_probability`` and
        ``fade_factor`` of :func:`ar1_uplinks`.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    values = ar1_uplinks([mean_mbps], num_samples, ensure_rng(seed), **process)
    return ThroughputTrace.from_values(values[:, 0], period_s=period_s, name=name)
