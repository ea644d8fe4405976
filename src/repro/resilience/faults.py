"""Deterministic fault injection for resilience tests and chaos drills.

A :class:`FaultInjector` forces the failure modes the degradation ladder
exists for — Cholesky :class:`~numpy.linalg.LinAlgError`, non-finite
objective values, and a process kill after evaluation N — at exact,
reproducible points, so the test suite and the chaos drills
(``tools/search_chaos.py``, ``tools/distributed_smoke.py``) can assert
recovery behaviour rather than hope for natural failures.

Injection is process-global and *off* by default: the consult sites in
:mod:`repro.optim.gp` and :mod:`repro.optim.mobo` are a single module
attribute read plus a ``None`` check, so production searches pay nothing.
Install an injector for a scope with::

    with faults.inject(FaultInjector(linalg_failures=3)):
        run_search(...)

or across process boundaries with environment variables (read once per
search by :func:`install_from_env`):

``REPRO_FAULT_LINALG``
    int — fail the next N Cholesky factorisations.
``REPRO_FAULT_NAN_EVALS``
    comma-separated evaluation indices whose objectives become NaN.
``REPRO_FAULT_KILL_AT_EVAL``
    int — SIGKILL the process after N evaluations complete, as a crash
    mid-search would; the drills then re-run the request and compare.
``REPRO_FAULT_HANG_AT_EVAL`` / ``REPRO_FAULT_HANG_SECONDS``
    int / float — wedge the process (a long ``time.sleep``) after N
    evaluations complete, for ``REPRO_FAULT_HANG_SECONDS`` seconds
    (default 3600).  This is how ``tools/campaign_chaos.py`` manufactures
    the cell a :func:`~repro.campaign.supervisor.deadline` watchdog must
    kill.
``REPRO_FAULT_TORN_WRITE``
    int — the next N store/audit appends write only half their line and
    then die (:class:`KilledByFault`), leaving a torn record for the
    tolerant scanner and ``repro store fsck`` to deal with.
``REPRO_FAULT_ENOSPC``
    int — the next N appends fail with ``OSError(ENOSPC)`` before writing
    a byte, as if the disk filled up.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Set

#: Environment variables understood by :func:`install_from_env`.
ENV_LINALG = "REPRO_FAULT_LINALG"
ENV_NAN_EVALS = "REPRO_FAULT_NAN_EVALS"
ENV_KILL_AT_EVAL = "REPRO_FAULT_KILL_AT_EVAL"
ENV_HANG_AT_EVAL = "REPRO_FAULT_HANG_AT_EVAL"
ENV_HANG_SECONDS = "REPRO_FAULT_HANG_SECONDS"
ENV_TORN_WRITE = "REPRO_FAULT_TORN_WRITE"
ENV_ENOSPC = "REPRO_FAULT_ENOSPC"

#: Accepted kill behaviours: ``"sigkill"`` is a real crash (for subprocess
#: drills), ``"raise"`` throws :class:`KilledByFault` (for in-process tests).
KILL_MODES = ("sigkill", "raise")


class KilledByFault(BaseException):
    """Simulated process death for in-process tests.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    recovery layers (e.g. the campaign worker's error envelopes) treat it
    exactly like a real SIGKILL: they never see it.
    """


class FaultInjector:
    """Deterministic fault source consulted by the search internals.

    Parameters
    ----------
    linalg_failures:
        Number of upcoming Cholesky factorisations to fail with a
        :class:`numpy.linalg.LinAlgError` (each consult decrements).
    nan_evaluations:
        Evaluation indices (0-based, in evaluation order) whose objective
        vectors are replaced with NaN.
    kill_at_evaluation:
        Kill the process after this many evaluations have completed
        (i.e. right after evaluation index ``kill_at_evaluation - 1``).
    kill_mode:
        ``"sigkill"`` (default) or ``"raise"``; see :data:`KILL_MODES`.
    hang_at_evaluation / hang_seconds:
        Wedge the process (``time.sleep(hang_seconds)``) after this many
        evaluations complete — the overrunning cell a campaign deadline
        watchdog must kill.  Checked before the kill switch.
    torn_appends:
        Number of upcoming store/audit appends to tear: half the line is
        written, then the writer dies with :class:`KilledByFault`.
    enospc_appends:
        Number of upcoming appends to fail with ``OSError(ENOSPC)``
        before a byte is written.
    """

    def __init__(
        self,
        linalg_failures: int = 0,
        nan_evaluations: Sequence[int] = (),
        kill_at_evaluation: Optional[int] = None,
        kill_mode: str = "sigkill",
        hang_at_evaluation: Optional[int] = None,
        hang_seconds: float = 3600.0,
        torn_appends: int = 0,
        enospc_appends: int = 0,
    ):
        if kill_mode not in KILL_MODES:
            raise ValueError(f"kill_mode must be one of {KILL_MODES}, got {kill_mode!r}")
        self.linalg_failures = int(linalg_failures)
        self.nan_evaluations: Set[int] = {int(i) for i in nan_evaluations}
        self.kill_at_evaluation = (
            None if kill_at_evaluation is None else int(kill_at_evaluation)
        )
        self.kill_mode = kill_mode
        self.hang_at_evaluation = (
            None if hang_at_evaluation is None else int(hang_at_evaluation)
        )
        self.hang_seconds = float(hang_seconds)
        self.torn_appends = int(torn_appends)
        self.enospc_appends = int(enospc_appends)

    # ------------------------------------------------------------- consults
    def take_linalg_fault(self) -> bool:
        """Whether the next Cholesky factorisation should fail."""
        if self.linalg_failures > 0:
            self.linalg_failures -= 1
            return True
        return False

    def take_nan_objectives(self, evaluation_index: int) -> bool:
        """Whether this evaluation's objectives should become NaN."""
        return int(evaluation_index) in self.nan_evaluations

    def take_torn_append(self) -> bool:
        """Whether the next append should tear (half-write, then die)."""
        if self.torn_appends > 0:
            self.torn_appends -= 1
            return True
        return False

    def take_enospc(self) -> bool:
        """Whether the next append should fail as if the disk filled up."""
        if self.enospc_appends > 0:
            self.enospc_appends -= 1
            return True
        return False

    def on_evaluation_complete(self, evaluation_index: int) -> None:
        """Kill switch: called after each evaluation's progress callback."""
        if (
            self.hang_at_evaluation is not None
            and int(evaluation_index) + 1 >= self.hang_at_evaluation
        ):
            # wedge, do not die: the point is to overrun a deadline.  The
            # sleep is a blocking system call, so the SIGALRM watchdog
            # interrupts it immediately.
            time.sleep(self.hang_seconds)
        if (
            self.kill_at_evaluation is not None
            and int(evaluation_index) + 1 >= self.kill_at_evaluation
        ):
            if self.kill_mode == "raise":
                raise KilledByFault(
                    f"injected kill after evaluation {evaluation_index}"
                )
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover


#: The process-global injector; ``None`` means faults are off.
_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently-installed injector, if any."""
    return _ACTIVE


def install(injector: Optional[FaultInjector]) -> None:
    """Install (or with ``None``, clear) the process-global injector."""
    global _ACTIVE
    _ACTIVE = injector


@contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scoped installation — the canonical way to use faults in tests."""
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        install(previous)


def install_from_env(environ=os.environ) -> Optional[FaultInjector]:
    """Install an injector described by ``REPRO_FAULT_*`` variables.

    Returns the installed injector, or ``None`` when no fault variable is
    set (an already-installed injector is left untouched either way, so
    programmatic injection always wins over the environment).
    """
    if _ACTIVE is not None:
        return _ACTIVE
    linalg = int(environ.get(ENV_LINALG, "0") or "0")
    raw_nans = environ.get(ENV_NAN_EVALS, "")
    nans = [int(part) for part in raw_nans.split(",") if part.strip()]
    raw_kill = environ.get(ENV_KILL_AT_EVAL, "")
    kill_at = int(raw_kill) if raw_kill.strip() else None
    raw_hang = environ.get(ENV_HANG_AT_EVAL, "")
    hang_at = int(raw_hang) if raw_hang.strip() else None
    hang_seconds = float(environ.get(ENV_HANG_SECONDS, "3600") or "3600")
    torn = int(environ.get(ENV_TORN_WRITE, "0") or "0")
    enospc = int(environ.get(ENV_ENOSPC, "0") or "0")
    if not (
        linalg
        or nans
        or kill_at is not None
        or hang_at is not None
        or torn
        or enospc
    ):
        return None
    injector = FaultInjector(
        linalg_failures=linalg,
        nan_evaluations=nans,
        kill_at_evaluation=kill_at,
        kill_mode="sigkill",
        hang_at_evaluation=hang_at,
        hang_seconds=hang_seconds,
        torn_appends=torn,
        enospc_appends=enospc,
    )
    install(injector)
    return injector
