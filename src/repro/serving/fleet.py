"""Vectorized multi-client throughput tracking and deployment switching.

A runtime decision is :func:`~repro.core.runtime.first_minimum` of
:meth:`~repro.core.runtime.ThresholdAnalysis.costs`: the first deployment
option whose cost at the client's throughput estimate is strictly lowest,
the rule the scalar ``best_option`` applies.  Serving that decision
to a fleet of clients needs the scalar single-device machinery
(:class:`~repro.wireless.tracker.ThroughputTracker` driving a
:class:`~repro.core.runtime.DynamicDeploymentController`) at array scale:

* :class:`FleetTracker` advances N clients' EWMA throughput estimates in one
  array operation per tick — heterogeneous smoothing coefficients and priors,
  NaN-masked idle clients, and anomaly counting for measurements a scalar
  tracker would reject;
* :class:`FleetController` takes that decision for the whole fleet's
  estimates per tick, counting per-client switches exactly as the scalar
  controller does.

Parity contract
---------------
Both classes are bit-exact sequels of their scalar references: feeding the
same measurements produces byte-identical estimates and identical decisions,
*including tie-breaking at exact threshold crossings*, because ``costs``
repeats the scalar cost expressions operation for operation.  The
``tests/test_serving_parity.py`` property suite holds this contract under
random fleets, coefficients and traces.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.runtime import ThresholdAnalysis, first_minimum

__all__ = ["FleetTracker", "FleetController"]


def _as_client_array(
    value: Union[float, Sequence[float], np.ndarray, None],
    num_clients: int,
    name: str,
    default: float,
) -> np.ndarray:
    """Broadcast a scalar / sequence to a float64 ``(num_clients,)`` array."""
    if value is None:
        return np.full(num_clients, default, dtype=np.float64)
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return np.full(num_clients, float(array), dtype=np.float64)
    if array.shape != (num_clients,):
        raise ValueError(
            f"{name} must be a scalar or shape ({num_clients},), got {array.shape}"
        )
    return array.copy()


class FleetTracker:
    """EWMA throughput estimation for N clients in one array op per tick.

    Parameters
    ----------
    num_clients:
        Fleet size.
    smoothing:
        EWMA coefficient(s) in (0, 1] — a scalar shared by every client or a
        per-client array (heterogeneous fleets).
    initial_mbps:
        Optional prior estimate(s), positive and finite; NaN entries mean "no
        prior" (matching a scalar tracker constructed without
        ``initial_mbps``).

    Tick semantics
    --------------
    :meth:`observe` takes one measurement per client.  A NaN measurement
    means the client produced no sample this tick (idle / stalled / trace
    exhausted): its estimate, observation count and decisions are left
    untouched.  Non-finite or non-positive measurements — which the scalar
    tracker rejects with an exception — are *counted* per client in
    :attr:`anomalies` and otherwise treated as idle, so one misbehaving
    client cannot take down a serving tick.

    Unlike the scalar reference the fleet tracker keeps no per-sample
    history: its state is O(num_clients) regardless of session length.
    """

    def __init__(
        self,
        num_clients: int,
        smoothing: Union[float, Sequence[float], np.ndarray] = 1.0,
        initial_mbps: Union[float, Sequence[float], np.ndarray, None] = None,
    ):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.num_clients = int(num_clients)
        self.smoothing = _as_client_array(
            smoothing, self.num_clients, "smoothing", 1.0
        )
        if np.any((self.smoothing < 1e-6) | (self.smoothing > 1.0)):
            raise ValueError("smoothing coefficients must lie in [1e-6, 1.0]")
        # The weight of the previous estimate in the EWMA update, derived
        # once, so the coefficients it comes from are frozen.
        self._retained = 1.0 - self.smoothing
        self.smoothing.flags.writeable = False
        self._estimates = _as_client_array(
            initial_mbps, self.num_clients, "initial_mbps", np.nan
        )
        unknown = np.isnan(self._estimates)
        with np.errstate(invalid="ignore"):
            usable = (self._estimates > 0.0) & (self._estimates < np.inf)
        if not (unknown | usable).all():
            raise ValueError("initial_mbps entries must be positive and finite (or NaN)")
        # Whether some client has no estimate yet; an estimate is never lost.
        self._unestimated = bool(unknown.any())
        self._active = np.zeros(self.num_clients, dtype=bool)
        self._num_observations = np.zeros(self.num_clients, dtype=np.int64)
        self._anomalies = np.zeros(self.num_clients, dtype=np.int64)

    # ------------------------------------------------------------------ state
    @property
    def estimates_mbps(self) -> np.ndarray:
        """Current per-client estimates (NaN where no observation/prior yet)."""
        return self._estimates.copy()

    @property
    def num_observations(self) -> np.ndarray:
        """Per-client count of valid measurements consumed."""
        return self._num_observations.copy()

    @property
    def anomalies(self) -> np.ndarray:
        """Per-client count of rejected (non-positive / infinite) measurements."""
        return self._anomalies.copy()

    @property
    def active(self) -> np.ndarray:
        """Mask of the clients whose measurement the last :meth:`observe` consumed."""
        return self._active.copy()

    # ------------------------------------------------------------------ update
    def observe(self, measurements: Union[Sequence[float], np.ndarray]) -> np.ndarray:
        """Consume one tick of measurements and return the updated estimates.

        ``measurements`` is one value per client; NaN marks idle clients.
        Element-wise, an active client's update is exactly the scalar
        tracker's ``s * value + (1 - s) * estimate`` (first observation:
        the value itself), so estimates stay bitwise identical to a
        per-client :class:`~repro.wireless.tracker.ThroughputTracker` loop.
        """
        values = np.asarray(measurements, dtype=np.float64)
        if values.shape != (self.num_clients,):
            raise ValueError(
                f"measurements must have shape ({self.num_clients},), "
                f"got {values.shape}"
            )
        estimates = self._estimates
        with np.errstate(invalid="ignore"):
            active = np.isfinite(values) & (values > 0.0)
            # Same expression (and evaluation order) as the scalar tracker;
            # NaN operands only occur in lanes the final where() discards.
            blended = self.smoothing * values + self._retained * estimates
        self._anomalies += ~(np.isnan(values) | active)
        self._num_observations += active
        if self._unestimated:
            # A client's first observation is the value itself.
            unknown = np.isnan(estimates)
            blended = np.where(unknown, values, blended)
            self._unestimated = bool((unknown & ~active).any())
        self._estimates = np.where(active, blended, estimates)
        self._active = active
        return self._estimates.copy()


class FleetController:
    """Vectorized sequel of :class:`DynamicDeploymentController` for N clients.

    Maps the whole fleet's throughput estimates onto deployment options in
    one :func:`~repro.core.runtime.first_minimum` of
    :meth:`ThresholdAnalysis.costs` per tick.

    Clients without an estimate yet (NaN) hold their previous decision
    (``-1`` before any decision) and are never counted as switches; held
    ticks are tallied in :attr:`holds`.
    """

    def __init__(self, analysis: ThresholdAnalysis, num_clients: int):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.analysis = analysis
        self.num_clients = int(num_clients)
        self._last = np.full(self.num_clients, -1, dtype=np.intp)
        # Whether some client has no decision yet; a decision is never lost.
        self._undecided = True
        self._switches = np.zeros(self.num_clients, dtype=np.int64)
        self._holds = np.zeros(self.num_clients, dtype=np.int64)

    # ------------------------------------------------------------------ state
    @property
    def last_option_indices(self) -> np.ndarray:
        """Per-client index of the current option (-1 before any decision)."""
        return self._last.copy()

    @property
    def switches(self) -> np.ndarray:
        """Per-client count of deployment switches so far."""
        return self._switches.copy()

    @property
    def num_switches(self) -> int:
        """Total switches across the fleet (scalar-controller semantics)."""
        return int(self._switches.sum())

    @property
    def holds(self) -> np.ndarray:
        """Per-client count of ticks decided by holding (no estimate)."""
        return self._holds.copy()

    # ------------------------------------------------------------------ decide
    def decide(self, estimates_mbps: np.ndarray) -> np.ndarray:
        """One decision tick: option index per client for the given estimates.

        NaN estimates hold the previous decision.  For every non-NaN
        estimate the returned index selects the same option the scalar
        ``analysis.best_option(estimate)`` would, including rounding-decided
        ties at exact threshold crossings.
        """
        estimates = np.asarray(estimates_mbps, dtype=np.float64)
        if estimates.shape != (self.num_clients,):
            raise ValueError(
                f"estimates must have shape ({self.num_clients},), "
                f"got {estimates.shape}"
            )
        choice = first_minimum(self.analysis.costs(estimates))
        idle = np.isnan(estimates)
        if idle.any():
            choice = np.where(idle, self._last, choice)
            self._holds += idle
        switched = choice != self._last
        if self._undecided:
            switched &= self._last >= 0
            self._undecided = bool((choice < 0).any())
        self._switches += switched
        self._last = choice
        return choice.copy()
