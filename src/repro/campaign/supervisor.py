"""Campaign supervision: the policy, deadlines and circuit breaking.

The pull protocol makes a campaign *survive* worker crashes; this module
makes it *converge* under sustained failure.  One :class:`CampaignPolicy`,
shared by every executor, carries the lease, retry and supervision settings
of a campaign, and two service disciplines enforce them:

**Enforced per-cell deadlines** (:func:`deadline`)
    ``cell_timeout_s > 0`` runs each cell under a watchdog that interrupts
    the overrun with :class:`CellTimeout` — a real :class:`TimeoutError`,
    so it classifies as ``E_TIMEOUT`` and enters the ordinary bounded-retry
    path.  On the main thread the watchdog is ``SIGALRM``-based (interrupts
    even a cell blocked in a system call); elsewhere it falls back to an
    async-raise timer that fires at the next bytecode boundary.  Each kill
    is one ``E_TIMEOUT`` record in the store's audit log.

**Campaign circuit breaker** (:class:`CircuitBreaker` / :class:`CampaignSupervisor`)
    A sliding window over recent cell results opens the circuit when the
    failure rate crosses ``circuit_threshold`` — workers pause claiming and
    the campaign exits with code 4 (:class:`CircuitOpenError`) instead of
    burning the remaining grid against a systematically broken axis.  After
    ``circuit_cooldown_s`` the circuit half-opens, admitting probe cells;
    a probe success closes it, a probe failure re-opens it.  The
    :class:`CampaignSupervisor` persists the breaker in ``supervisor.json``
    (flock'd read-modify-write, atomic replace) so every worker loop, in
    whatever process it runs, shares one breaker.

A cell that exhausts ``max_attempts``, fails non-retryably, or whose
lease-reclaim history shows it repeatedly *killing* its workers has failed
for good; the store's audit log records that, and no worker claims the
cell again until ``repro campaign --retry-dead`` re-admits it (see
:meth:`repro.campaign.store.RunStore.cell_failures`).

Everything is **off by default** (``cell_timeout_s=0``,
``circuit_threshold=0``): a campaign that does not opt in behaves — and
stores — byte-identically to one run before this module existed.

See ``docs/distributed.md`` ("Supervision") for the operational guide.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.utils.serialization import atomic_write_text
from repro.utils.validation import require_finite, require_integral

try:  # pragma: no cover - POSIX only; Windows uses the thread fallback
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: Name of the shared supervisor-state file inside a store directory.
SUPERVISOR_FILENAME = "supervisor.json"

#: Circuit states (the classic three-state breaker).
CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half-open"


class CellTimeout(TimeoutError):
    """A campaign cell exceeded its enforced deadline.

    Subclasses :class:`TimeoutError` so
    :func:`~repro.campaign.errors.classify_error` maps it to ``E_TIMEOUT``
    (retryable) without special-casing.
    """


class CircuitOpenError(RuntimeError):
    """The campaign circuit breaker is open.

    Subclasses :class:`RuntimeError` so callers treating any campaign abort
    uniformly keep working; the CLI maps it to its own exit code (4) ahead
    of the generic RuntimeError mapping (3).
    """


# ---------------------------------------------------------------------- policy

#: :class:`CampaignPolicy` fields that count: whole numbers, never truncated.
_POLICY_COUNT_FIELDS = (
    "max_attempts", "circuit_window", "circuit_probes",
)

#: :class:`CampaignPolicy` fields in seconds or as a failure fraction.
_POLICY_REAL_FIELDS = (
    "ttl_s", "poll_s", "backoff_base_s", "max_backoff_s", "cell_timeout_s",
    "circuit_threshold", "circuit_cooldown_s",
)


@dataclass(frozen=True)
class CampaignPolicy:
    """Every supervision/retry knob of a campaign, as one value object.

    The pre-existing lease/retry fields mirror what
    :class:`~repro.campaign.manifest.CampaignManifest` carried flat; the
    supervision fields are new and conservative by default — a default
    policy supervises nothing.

    Parameters
    ----------
    ttl_s / poll_s:
        Lease expiry window and idle-poll interval of the worker loop.
    max_attempts / backoff_base_s / max_backoff_s:
        Bounded-retry policy: up to ``max_attempts`` tries per cell with an
        exponential backoff of ``backoff_base_s * 2**(attempt-1)`` seconds,
        clamped to ``max_backoff_s`` (the cap applies after jitter, so no
        retry ever waits longer than the cap).
    cell_timeout_s:
        Enforced per-cell deadline in seconds; ``0`` (default) disables the
        watchdog.  Overruns are killed and audited as ``E_TIMEOUT``.
    on_error:
        ``"fail"`` or ``"continue"`` — what a campaign does about
        permanently failed cells.  Under ``"fail"`` a worker loop claims
        no further cell once a cell it ran has failed for good, and
        ``run_campaign`` raises; under ``"continue"`` the loops keep going
        and the failures are reported.
    circuit_window / circuit_threshold / circuit_cooldown_s / circuit_probes:
        Sliding-window circuit breaker: once ``circuit_window`` results are
        in, a failure fraction ``>= circuit_threshold`` opens the circuit.
        ``circuit_threshold=0`` (default) disables the breaker entirely.
        An open circuit half-opens after ``circuit_cooldown_s``, admitting
        ``circuit_probes`` probe cells.

    Counts must be whole numbers and the other numeric fields finite real
    numbers, held as ``float`` (never booleans, strings, NaN or infinities):
    ``ValueError`` rather than truncation or coercion, here and in
    :meth:`from_dict`.
    """

    ttl_s: float = 30.0
    poll_s: float = 0.5
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    max_backoff_s: float = 60.0
    cell_timeout_s: float = 0.0
    on_error: str = "fail"
    circuit_window: int = 8
    circuit_threshold: float = 0.0
    circuit_cooldown_s: float = 5.0
    circuit_probes: int = 1

    def __post_init__(self) -> None:
        for name in _POLICY_COUNT_FIELDS:
            object.__setattr__(self, name, require_integral(getattr(self, name), name))
        for name in _POLICY_REAL_FIELDS:
            object.__setattr__(self, name, require_finite(getattr(self, name), name))
        if not (self.ttl_s > 0 and self.poll_s > 0):
            raise ValueError(
                f"ttl_s/poll_s must be positive, got {self.ttl_s}/{self.poll_s}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.backoff_base_s >= 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if not self.max_backoff_s > 0:
            raise ValueError(
                f"max_backoff_s must be positive, got {self.max_backoff_s}"
            )
        if not self.cell_timeout_s >= 0:
            raise ValueError(
                f"cell_timeout_s must be >= 0 (0 disables), got "
                f"{self.cell_timeout_s}"
            )
        if self.on_error not in ("fail", "continue"):
            raise ValueError(
                f"on_error must be 'fail' or 'continue', got {self.on_error!r}"
            )
        if self.circuit_window < 1:
            raise ValueError(
                f"circuit_window must be >= 1, got {self.circuit_window}"
            )
        if not 0.0 <= self.circuit_threshold <= 1.0:
            raise ValueError(
                f"circuit_threshold must be in [0, 1] (0 disables), got "
                f"{self.circuit_threshold}"
            )
        if not self.circuit_cooldown_s >= 0:
            raise ValueError(
                f"circuit_cooldown_s must be >= 0, got {self.circuit_cooldown_s}"
            )
        if self.circuit_probes < 1:
            raise ValueError(
                f"circuit_probes must be >= 1, got {self.circuit_probes}"
            )

    @property
    def circuit_enabled(self) -> bool:
        """Whether the breaker can ever open under this policy."""
        return self.circuit_threshold > 0.0

    def replace(self, **changes: Any) -> "CampaignPolicy":
        """Copy with the given fields changed."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            policy_field.name: getattr(self, policy_field.name)
            for policy_field in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignPolicy":
        """Policy of :meth:`to_dict` output or of a v1 manifest's flat keys.

        Stored values go to the constructor's checks as they are; missing
        fields take their defaults, and other keys (a v1 manifest's cells
        and timestamp, or a field an older version wrote and this one
        retired) are ignored.
        """
        names = {policy_field.name for policy_field in fields(cls)}
        return cls(**{name: value for name, value in data.items() if name in names})


# ---------------------------------------------------------------------- deadline


def _async_raise(thread_id: int, exc_type: type) -> None:
    """Raise ``exc_type`` asynchronously in the thread ``thread_id``."""
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_long(thread_id), ctypes.py_object(exc_type)
    )


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Run a block under an enforced wall-clock deadline.

    ``seconds <= 0`` disables the watchdog (zero-overhead no-op).  On
    overrun the block is interrupted with :class:`CellTimeout`.

    Two mechanisms, picked automatically:

    * **main thread, POSIX** — ``signal.setitimer(ITIMER_REAL)`` +
      ``SIGALRM``; interrupts blocking system calls (``time.sleep``, I/O)
      immediately.  Every worker loop on its process's main thread takes
      this path: ``repro worker``, ``process-pool`` children, and a
      ``serial`` campaign started from the main thread.
    * **other threads / platforms without SIGALRM** — a daemon
      :class:`threading.Timer` async-raises :class:`CellTimeout` into the
      calling thread.  The exception lands at the next bytecode boundary,
      so a cell wedged inside a single C call is not interruptible on this
      path (documented limitation; loops on a main thread do not hit it).

    Not reentrant on the signal path (one ``ITIMER_REAL`` per process);
    nested deadlines would clobber each other, which no caller does.
    """
    if not seconds or seconds <= 0:
        yield
        return
    use_signal = hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    if use_signal:
        def _on_alarm(signum: int, frame: Any) -> None:
            raise CellTimeout(f"cell exceeded its {seconds:g}s deadline")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            # armed inside the try: a deadline setitimer cannot hold (such
            # as 1e12 s) raises with the previous handler back in place
            signal.setitimer(signal.ITIMER_REAL, float(seconds))
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    else:
        target = threading.get_ident()
        timer = threading.Timer(
            float(seconds), _async_raise, args=(target, CellTimeout)
        )
        timer.daemon = True
        timer.start()
        try:
            yield
        finally:
            timer.cancel()


# ---------------------------------------------------------------------- breaker


@dataclass
class CircuitBreaker:
    """Sliding-window failure-rate circuit breaker (pure state machine).

    ``record(success)`` feeds cell results; once the window is full and the
    failure fraction reaches the threshold the breaker **opens**.  After
    ``cooldown_s`` the next :meth:`allows` call **half-opens** it, handing
    out up to ``probes`` probe slots; a probe success **closes** the
    breaker (window cleared), a probe failure re-opens it.

    A threshold of ``0`` disables the breaker: it stays closed forever and
    every method is a cheap constant-time no-op.  The process-shared,
    file-backed version is :class:`CampaignSupervisor`.
    """

    window: int = 8
    threshold: float = 0.0
    cooldown_s: float = 5.0
    probes: int = 1
    state: str = CIRCUIT_CLOSED
    results: List[bool] = field(default_factory=list)
    opened_at: float = 0.0
    probes_out: int = 0
    #: ``(time_s, from_state, to_state)`` history, oldest first.
    transitions: List[Any] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return self.threshold > 0.0

    def _transition(self, to_state: str, now: float) -> None:
        self.transitions.append((now, self.state, to_state))
        self.state = to_state

    def failure_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for ok in self.results if not ok) / len(self.results)

    def record(self, success: bool, now: Optional[float] = None) -> str:
        """Feed one cell result; returns the (possibly new) state."""
        if not self.enabled:
            return self.state
        now = time.time() if now is None else now
        if self.state == CIRCUIT_HALF_OPEN:
            self.probes_out = max(0, self.probes_out - 1)
            if success:
                # the probe proved the fault healed: close and start fresh
                self.results.clear()
                self.probes_out = 0
                self._transition(CIRCUIT_CLOSED, now)
            else:
                self.opened_at = now
                self.probes_out = 0
                self._transition(CIRCUIT_OPEN, now)
            return self.state
        self.results.append(bool(success))
        if len(self.results) > self.window:
            del self.results[: len(self.results) - self.window]
        if (
            self.state == CIRCUIT_CLOSED
            and len(self.results) >= self.window
            and self.failure_rate() >= self.threshold
        ):
            self.opened_at = now
            self._transition(CIRCUIT_OPEN, now)
        return self.state

    def allows(self, now: Optional[float] = None) -> bool:
        """Whether a worker may claim a cell right now.

        An open breaker past its cooldown half-opens here, and a
        half-open breaker grants at most ``probes`` concurrent slots.
        """
        if not self.enabled or self.state == CIRCUIT_CLOSED:
            return True
        now = time.time() if now is None else now
        if self.state == CIRCUIT_OPEN:
            if now - self.opened_at < self.cooldown_s:
                return False
            self._transition(CIRCUIT_HALF_OPEN, now)
            self.probes_out = 0
        if self.probes_out < self.probes:
            self.probes_out += 1
            return True
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "probes": self.probes,
            "state": self.state,
            "results": list(self.results),
            "opened_at": self.opened_at,
            "probes_out": self.probes_out,
            "transitions": [list(t) for t in self.transitions[-50:]],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CircuitBreaker":
        return cls(
            window=int(data.get("window", 8)),
            threshold=float(data.get("threshold", 0.0)),
            cooldown_s=float(data.get("cooldown_s", 5.0)),
            probes=int(data.get("probes", 1)),
            state=str(data.get("state", CIRCUIT_CLOSED)),
            results=[bool(r) for r in data.get("results", [])],
            opened_at=float(data.get("opened_at", 0.0)),
            probes_out=int(data.get("probes_out", 0)),
            transitions=[tuple(t) for t in data.get("transitions", [])],
        )


#: The types each field :meth:`CircuitBreaker.to_dict` writes may have.
_CIRCUIT_TYPES = dict(
    window=int, probes=int, probes_out=int, threshold=(int, float), cooldown_s=(int, float),
    opened_at=(int, float), state=str, results=list, transitions=list,
)


def _readable_circuit(circuit: Any) -> bool:
    """Whether a stored breaker holds each field in a type the breaker writes."""
    return (
        isinstance(circuit, dict)
        and circuit.get("state", CIRCUIT_CLOSED)
        in (CIRCUIT_CLOSED, CIRCUIT_OPEN, CIRCUIT_HALF_OPEN)
        and all(
            isinstance(circuit[name], kind) and not isinstance(circuit[name], bool)
            for name, kind in _CIRCUIT_TYPES.items()
            if name in circuit
        )
        and all(isinstance(result, bool) for result in circuit.get("results", []))
        and all(isinstance(transition, list) for transition in circuit.get("transitions", []))
    )


# ---------------------------------------------------------------------- supervisor


class CampaignSupervisor:
    """File-backed supervision state shared by every process of a campaign.

    Persists a :class:`CircuitBreaker` in ``supervisor.json`` inside the
    store directory.  Every mutation is a read-modify-write under an
    exclusive ``flock`` on a sidecar lock file, finished with an atomic
    replace, so concurrent pull workers see one consistent breaker — the
    same discipline the lease board and audit log already use.

    With the breaker disabled (``circuit_threshold=0``, the default) the
    mutating methods short-circuit without touching the filesystem, so an
    unsupervised campaign never writes the file.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        policy: Optional[CampaignPolicy] = None,
    ):
        self.directory = Path(directory)
        self.path = self.directory / SUPERVISOR_FILENAME
        self.policy = policy or CampaignPolicy()
        self._cached_state: Optional[Dict[str, Any]] = None
        self._cache_key: Optional[Any] = None

    # ------------------------------------------------------------------ state I/O
    def _fresh_state(self) -> Dict[str, Any]:
        return {
            "schema_version": 1,
            "circuit": CircuitBreaker(
                window=self.policy.circuit_window,
                threshold=self.policy.circuit_threshold,
                cooldown_s=self.policy.circuit_cooldown_s,
                probes=self.policy.circuit_probes,
            ).to_dict(),
        }

    def _read_state(self) -> Dict[str, Any]:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return self._fresh_state()
        try:
            state = json.loads(raw)
        except ValueError:
            return self._fresh_state()
        if not isinstance(state, dict) or not _readable_circuit(state.get("circuit")):
            return self._fresh_state()
        return state

    def _read_state_cached(self) -> Dict[str, Any]:
        """Read-only state view, re-parsed only when the file changed.

        Every mutation finishes with an atomic replace, so an unchanged
        ``(mtime_ns, size)`` pair means the cached parse is still current —
        the healthy claim path (breaker closed) pays one ``stat`` instead
        of a read-and-parse per claim.
        """
        try:
            meta = os.stat(self.path)
        except OSError:
            return self._fresh_state()
        key = (meta.st_mtime_ns, meta.st_size)
        if self._cached_state is None or self._cache_key != key:
            self._cached_state = self._read_state()
            self._cache_key = key
        return self._cached_state

    @contextmanager
    def _locked(self) -> Iterator[Dict[str, Any]]:
        """Exclusive read-modify-write of the state file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        fd = os.open(str(lock_path), os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            state = self._read_state()
            yield state
            atomic_write_text(
                self.path, json.dumps(state, indent=2, sort_keys=True) + "\n"
            )
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            os.close(fd)

    # ------------------------------------------------------------------ circuit
    def record_result(self, success: bool) -> str:
        """Feed one cell result into the shared breaker; returns its state."""
        if not self.policy.circuit_enabled:
            return CIRCUIT_CLOSED
        if success:
            circuit = self._read_state_cached().get("circuit", {})
            window = int(circuit.get("window", self.policy.circuit_window))
            if (
                str(circuit.get("state", CIRCUIT_CLOSED)) == CIRCUIT_CLOSED
                and circuit.get("results") == [True] * window
            ):
                # steady-state healthy: appending one more success to a
                # window already full of successes is a no-op, so skip the
                # locked read-modify-write entirely.  Racing a concurrent
                # failure only leaves that failure in the window one result
                # longer — erring toward opening, never away from it.
                return CIRCUIT_CLOSED
        with self._locked() as state:
            breaker = CircuitBreaker.from_dict(state["circuit"])
            result = breaker.record(bool(success))
            state["circuit"] = breaker.to_dict()
        return result

    def circuit_allows(self) -> bool:
        """Whether workers may claim cells (may half-open the breaker).

        The healthy path — breaker closed — is a single lock-free state
        read; only a non-closed breaker pays the locked read-modify-write
        (it may transition to half-open and hand out a probe slot).
        """
        if not self.policy.circuit_enabled:
            return True
        circuit = self._read_state_cached().get("circuit", {})
        if str(circuit.get("state", CIRCUIT_CLOSED)) == CIRCUIT_CLOSED:
            return True
        with self._locked() as state:
            breaker = CircuitBreaker.from_dict(state["circuit"])
            allowed = breaker.allows()
            state["circuit"] = breaker.to_dict()
        return allowed

    def release_probe(self) -> None:
        """Return a half-open probe slot whose claim never executed.

        :meth:`circuit_allows` hands a probe slot out *before* the claim;
        when the claim then no-ops (a peer holds the lease, or the cell
        turns out to be stored already) no result will ever be recorded
        against the slot, so it must be returned or the breaker would sit
        half-open with all probes out forever.
        """
        if not self.policy.circuit_enabled:
            return
        circuit = self._read_state_cached().get("circuit", {})
        if str(circuit.get("state", CIRCUIT_CLOSED)) != CIRCUIT_HALF_OPEN:
            return
        with self._locked() as state:
            breaker = CircuitBreaker.from_dict(state["circuit"])
            if breaker.state == CIRCUIT_HALF_OPEN and breaker.probes_out > 0:
                breaker.probes_out -= 1
            state["circuit"] = breaker.to_dict()

    def circuit_state(self) -> str:
        """Current breaker state without mutating anything."""
        if not self.policy.circuit_enabled:
            return CIRCUIT_CLOSED
        circuit = self._read_state_cached().get("circuit", {})
        return str(circuit.get("state", CIRCUIT_CLOSED))

    # ------------------------------------------------------------------ summary
    def summary(self) -> Dict[str, Any]:
        """The breaker's state and transitions, for ``CampaignResult.summary``."""
        circuit = self._read_state()["circuit"]
        return {
            "circuit_state": (
                str(circuit.get("state", CIRCUIT_CLOSED))
                if self.policy.circuit_enabled
                else "disabled"
            ),
            "circuit_transitions": [
                list(t) for t in circuit.get("transitions", [])
            ],
        }
