"""Tests for the resilience layer: health log, degradation ladder, faults.

The degradation ladder is exercised both directly (near-singular kernel
matrices, hypothesis-generated duplicate-row designs) and through
deterministic fault injection (:mod:`repro.resilience.faults`); the
quarantine tests pin the non-finite-objective policy of the MOBO loop.
Checkpoint/resume behaviour lives in ``tests/test_checkpoint_resume.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim.gp import DEFAULT_JITTER, MAX_JITTER, GaussianProcess, escalating_cholesky
from repro.optim.gp_bank import GPBank
from repro.optim.mobo import MultiObjectiveBayesianOptimizer
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, KilledByFault
from repro.resilience.health import (
    HEALTH_CODES,
    HealthEvent,
    HealthLog,
    summarize_health,
)

# ---------------------------------------------------------------------- helpers

GRID = 21


def _sample(rng):
    return np.array([rng.integers(0, GRID), rng.integers(0, GRID)])


def _features(candidate):
    return np.asarray(candidate, dtype=float) / (GRID - 1)


def _objectives(candidate):
    x = np.asarray(candidate, dtype=float) / (GRID - 1)
    f1 = x[0]
    f2 = (1 + x[1]) * (1 - np.sqrt(x[0] / (1 + x[1])))
    return np.array([f1, f2]), {"x": x.tolist()}


def _pool(objective):
    """Lift a per-candidate objective to the optimizer's pool objective."""
    return lambda candidates: [objective(c) for c in candidates]


def _make_optimizer(**overrides):
    kwargs = dict(
        sample_fn=_sample,
        feature_fn=_features,
        batch_objective_fn=_pool(_objectives),
        num_objectives=2,
        num_initial=6,
        num_iterations=12,
        candidate_pool_size=40,
        seed=0,
    )
    kwargs.update(overrides)
    return MultiObjectiveBayesianOptimizer(**kwargs)


# ---------------------------------------------------------------------- health log


class TestHealthLog:
    def test_record_and_counters(self):
        log = HealthLog()
        log.record("H_JITTER_ESCALATED", "site=fit", jitter=1e-6)
        log.record("H_JITTER_ESCALATED", "site=extend")
        log.record("H_EXACT_REFIT")
        assert len(log) == 3
        assert log.count("H_JITTER_ESCALATED") == 2
        assert log.counters() == {"H_EXACT_REFIT": 1, "H_JITTER_ESCALATED": 2}

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            HealthLog().record("H_NO_SUCH_CODE")
        with pytest.raises(ValueError):
            HealthEvent(code="bogus")

    def test_empty_log_is_truthy_object(self):
        # `context.health or HealthLog()` must never discard an attached log.
        assert bool(HealthLog()) is True
        assert len(HealthLog()) == 0

    def test_attach_persists_past_and_future_events(self, tmp_path):
        log = HealthLog()
        log.record("H_EXACT_REFIT", "before attach")
        sink = tmp_path / "health.jsonl"
        log.attach(sink)
        log.record("H_RESUMED", "after attach", replayed=5)
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [entry["code"] for entry in lines] == ["H_EXACT_REFIT", "H_RESUMED"]
        assert lines[1]["context"] == {"replayed": 5}
        roundtrip = HealthEvent.from_dict(lines[1])
        assert roundtrip.code == "H_RESUMED"

    def test_summarize_health_merges(self):
        merged = summarize_health(
            [
                {"H_EXACT_REFIT": 1, "H_RESUMED": 1},
                {},
                None,
                {"H_EXACT_REFIT": 2},
            ]
        )
        assert merged == {"H_EXACT_REFIT": 3, "H_RESUMED": 1}

    def test_every_code_has_a_legend(self):
        for code, description in HEALTH_CODES.items():
            assert code.startswith("H_")
            assert description


# ---------------------------------------------------------------------- jitter ladder


class TestEscalatingCholesky:
    def test_healthy_matrix_needs_no_jitter(self):
        K = np.eye(4) + 0.1
        health = HealthLog()
        L = escalating_cholesky(K, health=health)
        assert np.allclose(L @ L.T, K)
        assert len(health) == 0

    def test_singular_matrix_recovers_with_jitter(self):
        # Rank-1 Gram matrix: plain Cholesky fails, the ladder must recover.
        v = np.ones((5, 1))
        K = v @ v.T
        health = HealthLog()
        L = escalating_cholesky(K, health=health, site="fit")
        assert np.all(np.isfinite(L))
        assert health.count("H_JITTER_ESCALATED") == 1
        added = health.events[0].context["jitter"]
        assert DEFAULT_JITTER < added <= MAX_JITTER
        assert np.allclose(L @ L.T, K + added * np.eye(5))

    def test_hopeless_matrix_still_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            escalating_cholesky(-np.eye(3), health=HealthLog())

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        num_duplicates=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_duplicate_row_kernels_never_crash(self, n, num_duplicates, seed):
        # Duplicated design rows make kernel matrices exactly singular
        # (identical rows/columns) — the classic failure of a GP fit on a
        # search that revisits a genotype.  The ladder must always produce
        # a finite factor or raise LinAlgError — never return garbage.
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 3))
        X = np.vstack([X] + [X[:1]] * num_duplicates)  # duplicate the first row
        K = GaussianProcess(lengthscale=1.0).kernel(X, X)
        health = HealthLog()
        try:
            L = escalating_cholesky(K, health=health)
        except np.linalg.LinAlgError:
            return
        assert np.all(np.isfinite(L))
        reconstructed = L @ L.T
        assert np.all(np.isfinite(reconstructed))
        assert np.abs(reconstructed - K).max() <= MAX_JITTER * 1.01


class TestGaussianProcessLadder:
    def test_fit_on_duplicate_rows_succeeds(self):
        # The base observation noise keeps exactly-duplicated rows PD, so
        # this must fit cleanly without even consulting the ladder.
        X = np.vstack([np.full((4, 2), 0.5), np.full((4, 2), 0.5)])
        y = np.linspace(0.0, 1.0, 8)
        health = HealthLog()
        gp = GaussianProcess(lengthscale=1.0, health=health)
        gp.fit(X, y)
        mean, std = gp.predict(np.array([[0.5, 0.5]]))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert len(health) == 0

    def test_injected_fit_failure_recovers_with_jitter(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(8, 2))
        y = rng.uniform(size=8)
        health = HealthLog()
        gp = GaussianProcess(lengthscale=1.0, health=health)
        with faults.inject(FaultInjector(linalg_failures=1)):
            gp.fit(X, y)
        mean, std = gp.predict(X)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert health.count("H_JITTER_ESCALATED") == 1


class TestGPBankLadder:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_near_singular_updates_never_crash(self, seed):
        # Streams with many duplicated rows; the bank may escalate jitter,
        # fall back to exact refits or heterogeneous fits — anything but
        # crashing or returning non-finite posteriors.
        rng = np.random.default_rng(seed)
        base = rng.uniform(size=(4, 3))
        X = np.vstack([base, base, base[:2]])  # heavy duplication
        Y = rng.uniform(size=(X.shape[0], 2))
        health = HealthLog()
        bank = GPBank(2, lengthscale=1.0, health=health)
        for n in range(2, X.shape[0] + 1):
            bank.update(X[:n], Y[:n])
        mean, std = bank.predict(rng.uniform(size=(5, 3)))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_injected_failures_degrade_through_the_ladder(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(8, 3))
        Y = rng.uniform(size=(8, 2))
        health = HealthLog()
        bank = GPBank(2, lengthscale=1.0, health=health)
        # enough failures to defeat one full jitter ladder (7 attempts per
        # site) several times over, forcing exact-refit/heterogeneous rungs
        with faults.inject(FaultInjector(linalg_failures=20)):
            for n in range(2, X.shape[0] + 1):
                bank.update(X[:n], Y[:n])
        mean, std = bank.predict(X)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert len(health) >= 1
        assert set(health.counters()) <= {
            "H_JITTER_ESCALATED",
            "H_EXACT_REFIT",
            "H_HETEROGENEOUS_FALLBACK",
        }


# ---------------------------------------------------------------------- quarantine


class TestQuarantine:
    def test_nan_objectives_quarantined_by_default(self):
        health = HealthLog()
        bad = _make_optimizer(
            batch_objective_fn=_pool(lambda c: np.array([np.nan, 1.0])),
            health=health,
        )
        result = bad.run()
        assert len(result) == 0
        assert len(bad.quarantined) == 18
        assert len(bad.archive) == 0
        assert health.count("H_OBJECTIVE_QUARANTINED") == 18
        assert all(p.metadata.get("quarantined") for p in bad.quarantined)

    def test_inf_objectives_quarantined(self):
        health = HealthLog()
        bad = _make_optimizer(
            batch_objective_fn=_pool(lambda c: np.array([np.inf, 1.0])),
            num_iterations=2,
            health=health,
        )
        bad.run()
        assert health.count("H_OBJECTIVE_QUARANTINED") == 8

    def test_empty_objectives_quarantined(self):
        health = HealthLog()
        bad = _make_optimizer(
            batch_objective_fn=_pool(lambda c: np.array([])),
            num_iterations=2,
            health=health,
        )
        result = bad.run()
        assert len(result) == 0
        assert health.count("H_OBJECTIVE_QUARANTINED") == 8

    def test_strict_mode_raises_instead(self):
        bad = _make_optimizer(
            batch_objective_fn=_pool(lambda c: np.array([np.nan, 1.0])),
            strict=True,
        )
        with pytest.raises(ValueError):
            bad.run()

    def test_partial_poisoning_keeps_archive_clean(self):
        # Only evaluation indices 2 and 5 are poisoned (via the injector);
        # everything else proceeds, and the archive holds only finite rows.
        health = HealthLog()
        optimizer = _make_optimizer(health=health)
        with faults.inject(FaultInjector(nan_evaluations=(2, 5))):
            result = optimizer.run()
        assert len(result) == 16
        assert len(optimizer.quarantined) == 2
        assert health.count("H_OBJECTIVE_QUARANTINED") == 2
        assert np.all(np.isfinite(result.objective_matrix()))
        archive = optimizer.archive.objective_matrix()
        assert np.all(np.isfinite(archive))

    def test_healthy_run_identical_with_and_without_health_log(self):
        # Attaching a health log must not consume RNG or perturb results —
        # the fingerprint-neutrality guarantee.
        plain = _make_optimizer(seed=5).run().objective_matrix()
        health = HealthLog()
        logged = _make_optimizer(seed=5, health=health).run().objective_matrix()
        assert np.array_equal(plain, logged)
        assert len(health) == 0


# ---------------------------------------------------------------------- retries


class TestObjectiveRetry:
    def test_flaky_objective_retried(self):
        calls = {"n": 0}

        def flaky(candidates):
            calls["n"] += 1
            if calls["n"] % 3 == 1:  # every third pool call fails first
                raise RuntimeError("transient")
            return [_objectives(c) for c in candidates]

        health = HealthLog()
        optimizer = _make_optimizer(
            batch_objective_fn=flaky,
            num_iterations=4,
            objective_retries=2,
            health=health,
        )
        result = optimizer.run()
        assert len(result) == 10
        # A retry re-costs a whole pool: the initial pool (call 1) and the
        # BO pools of calls 4 and 7 each fail once, then succeed.
        assert calls["n"] == 8
        assert health.count("H_OBJECTIVE_RETRY") == 3

    def test_retry_budget_exhausted_raises(self):
        def always_fails(candidates):
            raise RuntimeError("permanent")

        optimizer = _make_optimizer(
            batch_objective_fn=always_fails, objective_retries=1, num_iterations=2
        )
        with pytest.raises(RuntimeError, match="permanent"):
            optimizer.run()

    def test_injected_objective_faults_absorbed_by_retries(self):
        health = HealthLog()
        optimizer = _make_optimizer(
            num_iterations=4, objective_retries=3, health=health
        )
        with faults.inject(FaultInjector(objective_failures=2)):
            result = optimizer.run()
        assert len(result) == 10
        assert health.count("H_OBJECTIVE_RETRY") == 2

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            _make_optimizer(objective_retries=-1)


# ---------------------------------------------------------------------- exhausted space


class TestExhaustedSpace:
    def test_accepted_duplicates_are_recorded(self):
        # Three candidates, 2 + 4 evaluations: once all three are seen the
        # sampler gives up looking for an unseen one, accepts a duplicate
        # rather than stall, and says so in the health log.
        health = HealthLog()
        optimizer = MultiObjectiveBayesianOptimizer(
            sample_fn=lambda rng: np.array([rng.integers(0, 3)]),
            feature_fn=lambda c: np.asarray(c, dtype=float) / 2.0,
            batch_objective_fn=_pool(lambda c: np.array([c[0], 2.0 - c[0]])),
            num_objectives=2,
            num_initial=2,
            num_iterations=4,
            candidate_pool_size=4,
            seed=0,
            health=health,
        )
        result = optimizer.run()
        assert len(result) == 6
        assert health.count("H_DUPLICATE_ACCEPTED") >= 1


# ---------------------------------------------------------------------- fault injector


class TestFaultInjector:
    def test_consults_decrement(self):
        injector = FaultInjector(linalg_failures=2, objective_failures=1)
        assert injector.take_linalg_fault() and injector.take_linalg_fault()
        assert not injector.take_linalg_fault()
        assert injector.take_objective_fault()
        assert not injector.take_objective_fault()

    def test_nan_membership(self):
        injector = FaultInjector(nan_evaluations=(1, 4))
        assert injector.take_nan_objectives(1)
        assert injector.take_nan_objectives(4)
        assert not injector.take_nan_objectives(2)

    def test_raise_mode_kill(self):
        injector = FaultInjector(kill_at_evaluation=3, kill_mode="raise")
        injector.on_evaluation_complete(0)
        injector.on_evaluation_complete(1)
        with pytest.raises(KilledByFault):
            injector.on_evaluation_complete(2)

    def test_killed_by_fault_evades_except_exception(self):
        # The whole point: worker-style `except Exception` recovery must not
        # swallow a simulated crash.
        with pytest.raises(KilledByFault):
            try:
                raise KilledByFault("boom")
            except Exception:  # noqa: BLE001
                pytest.fail("KilledByFault must not be an Exception")

    def test_invalid_kill_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(kill_mode="nuke")

    def test_inject_scope_restores(self):
        assert faults.active() is None
        with faults.inject(FaultInjector(linalg_failures=1)) as injector:
            assert faults.active() is injector
        assert faults.active() is None

    def test_install_from_env_parses(self):
        environ = {
            "REPRO_FAULT_LINALG": "3",
            "REPRO_FAULT_NAN_EVALS": "2,5",
            "REPRO_FAULT_OBJECTIVE": "1",
            "REPRO_FAULT_KILL_AT_EVAL": "9",
        }
        try:
            injector = faults.install_from_env(environ)
            assert injector is not None
            assert injector.linalg_failures == 3
            assert injector.nan_evaluations == {2, 5}
            assert injector.objective_failures == 1
            assert injector.kill_at_evaluation == 9
        finally:
            faults.install(None)

    def test_install_from_env_noop_without_vars(self):
        assert faults.install_from_env({}) is None
        assert faults.active() is None

    def test_programmatic_injector_wins_over_env(self):
        programmatic = FaultInjector(linalg_failures=1)
        with faults.inject(programmatic):
            returned = faults.install_from_env({"REPRO_FAULT_LINALG": "99"})
            assert returned is programmatic
            assert faults.active() is programmatic
