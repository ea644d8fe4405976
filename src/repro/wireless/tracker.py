"""Online upload-throughput tracker (paper §IV-E).

After deployment "an online throughput tracker can be exploited on the edge
device to switch between different deployment options based on the tu value
in real-time O(1)".  The tracker maintains an exponentially-weighted moving
average of observed throughput measurements so single outliers do not cause
spurious deployment switches, and exposes the current estimate to the
:class:`~repro.core.runtime.DynamicDeploymentController`.

This scalar tracker is the *reference implementation* for the vectorized
fleet tracker (:class:`repro.serving.FleetTracker`), which advances many
clients' estimates in one array operation per tick; the serving parity tests
hold the two element-wise identical.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.utils.validation import require_between, require_positive_finite


class ThroughputTracker:
    """Exponentially-weighted moving-average estimator of uplink throughput.

    Parameters
    ----------
    smoothing:
        EWMA coefficient in (0, 1]; 1 means "trust only the latest sample"
        (the behaviour assumed by the paper's O(1) switching argument), lower
        values smooth out measurement noise.
    initial_mbps:
        Optional prior estimate before any observation arrives (positive and
        finite).
    history_limit:
        Maximum number of raw measurements retained by :attr:`history`
        (bounded-deque semantics: older samples are dropped as new ones
        arrive).  ``None`` (the default) keeps every sample, preserving the
        historical behaviour — but an unbounded history grows without limit,
        so long-lived serving sessions should pass a finite limit.  The
        estimate itself is O(1) state and is unaffected by the limit.
    """

    def __init__(
        self,
        smoothing: float = 1.0,
        initial_mbps: Optional[float] = None,
        history_limit: Optional[int] = None,
    ):
        require_between(smoothing, 1e-6, 1.0, "smoothing")
        if history_limit is not None and history_limit < 0:
            raise ValueError(f"history_limit must be >= 0, got {history_limit}")
        self.smoothing = float(smoothing)
        self.history_limit = history_limit
        self._estimate: Optional[float] = None
        self._history: Deque[float] = deque(maxlen=history_limit)
        self._num_observations = 0
        if initial_mbps is not None:
            require_positive_finite(initial_mbps, "initial_mbps")
            self._estimate = float(initial_mbps)

    @property
    def estimate_mbps(self) -> Optional[float]:
        """Current throughput estimate, or ``None`` before any observation."""
        return self._estimate

    @property
    def num_observations(self) -> int:
        """Number of throughput measurements consumed so far.

        Counts every observation ever consumed, even those a finite
        ``history_limit`` has since evicted from :attr:`history`.
        """
        return self._num_observations

    @property
    def history(self) -> List[float]:
        """Copy of the retained raw measurements (Mbps).

        With a finite ``history_limit`` only the most recent measurements
        are retained (oldest first); without one, every measurement.
        """
        return list(self._history)

    def observe(self, uplink_mbps: float) -> float:
        """Consume one measurement and return the updated estimate.

        Zero, negative and non-finite measurements raise ``ValueError``.
        """
        require_positive_finite(uplink_mbps, "uplink_mbps")
        self._history.append(float(uplink_mbps))
        self._num_observations += 1
        if self._estimate is None:
            self._estimate = float(uplink_mbps)
        else:
            self._estimate = (
                self.smoothing * float(uplink_mbps)
                + (1.0 - self.smoothing) * self._estimate
            )
        return self._estimate

    def reset(self) -> None:
        """Forget all observations and the current estimate."""
        self._estimate = None
        self._history.clear()
        self._num_observations = 0
