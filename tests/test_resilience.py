"""Tests for the resilience layer: health log, degradation ladder, faults.

The degradation ladder is exercised both directly (near-singular kernel
matrices, hypothesis-generated duplicate-row designs) and through
deterministic fault injection (:mod:`repro.resilience.faults`); the
quarantine tests pin the non-finite-objective policy of the MOBO loop, and
the kill tests pin how a crashed search recovers: a plain re-run of its
request, on a fresh engine or on the one the killed run warmed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.engine import EvaluationEngine
from repro.api.session import run_search
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

    @pytest.mark.parametrize(
        "code",
        ["H_CHECKPOINT_SAVED", "H_CHECKPOINT_CORRUPT", "H_RESUMED", "H_RESUME_DRIFT"],
    )
    def test_retired_checkpoint_codes_cannot_be_recorded(self, code):
        # stored outcomes may still carry them (reported as "(unknown
        # code)"), but no search records them any more
        assert code not in HEALTH_CODES
        with pytest.raises(ValueError, match="unknown health code"):
            HealthLog().record(code)

    def test_empty_log_is_truthy_object(self):
        # `health or HealthLog()` must not swap an empty shared log for a
        # fresh one.
        assert bool(HealthLog()) is True
        assert len(HealthLog()) == 0

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

    def test_bank_without_a_log_keeps_its_events(self):
        # A bank built without a log holds its own, shared with its members,
        # so a standalone bank never drops a degradation event.
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(8, 3))
        bank = GPBank(2, lengthscale=1.0)
        with faults.inject(FaultInjector(linalg_failures=1)):
            bank.update(X, rng.uniform(size=(8, 2)))
        assert bank.health.counters() == {"H_JITTER_ESCALATED": 1}
        assert all(model.health is bank.health for model in bank.models)


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

    def test_optimizer_without_a_log_keeps_its_events(self):
        # The optimizer's own log also receives its surrogate bank's events.
        optimizer = _make_optimizer(num_iterations=2)
        with faults.inject(FaultInjector(nan_evaluations=(1,), linalg_failures=1)):
            optimizer.run()
        assert optimizer.health.counters() == {
            "H_JITTER_ESCALATED": 1,
            "H_OBJECTIVE_QUARANTINED": 1,
        }

    def test_healthy_run_identical_with_and_without_health_log(self):
        # Attaching a health log must not consume RNG or perturb results —
        # the fingerprint-neutrality guarantee.
        plain = _make_optimizer(seed=5).run().objective_matrix()
        health = HealthLog()
        logged = _make_optimizer(seed=5, health=health).run().objective_matrix()
        assert np.array_equal(plain, logged)
        assert len(health) == 0


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
        injector = FaultInjector(linalg_failures=2, torn_appends=1)
        assert injector.take_linalg_fault() and injector.take_linalg_fault()
        assert not injector.take_linalg_fault()
        assert injector.take_torn_append()
        assert not injector.take_torn_append()

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
            "REPRO_FAULT_KILL_AT_EVAL": "9",
            "REPRO_FAULT_ENOSPC": "1",
        }
        try:
            injector = faults.install_from_env(environ)
            assert injector is not None
            assert injector.linalg_failures == 3
            assert injector.nan_evaluations == {2, 5}
            assert injector.kill_at_evaluation == 9
            assert injector.enospc_appends == 1
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


# ---------------------------------------------------------------------- kill and re-run

#: A lens search small enough for tier-1: 3 initial + 4 BO evaluations.
KILLED_SEARCH = dict(
    strategy="lens",
    scenario="wifi-3mbps/jetson-tx2-gpu",
    num_initial=3,
    num_iterations=4,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
    seed=3,
)


def _comparable(outcome):
    """Outcome dict minus run-local noise (timing, cache stats, health)."""
    data = outcome.to_dict()
    for key in ("wall_time_s", "engine_stats", "health"):
        data.pop(key, None)
    return data


def _killed_search(space, strategy="lens", engine=None):
    """Run :data:`KILLED_SEARCH` with ``strategy`` (default: on a fresh engine)."""
    return run_search(
        search_space=space,
        engine=engine or EvaluationEngine(),
        **dict(KILLED_SEARCH, strategy=strategy),
    )


@pytest.fixture(scope="class")
def uninterrupted(small_search_space):
    """``strategy -> comparable outcome`` of an uninterrupted run, run once."""
    outcomes = {}

    def get(strategy):
        if strategy not in outcomes:
            outcomes[strategy] = _comparable(
                _killed_search(small_search_space, strategy)
            )
        return outcomes[strategy]

    return get


class TestKillAndRerun:
    def test_interrupted_search_reruns_bitwise_identical(self, small_search_space):
        def run():
            return run_search(
                search_space=small_search_space,
                engine=EvaluationEngine(),
                **KILLED_SEARCH,
            )

        golden = run()
        # Kill after 5 of the 7 evaluations (raise-mode kill: an in-process
        # stand-in for SIGKILL that still evades `except Exception` recovery).
        with faults.inject(FaultInjector(kill_at_evaluation=5, kill_mode="raise")):
            with pytest.raises(KilledByFault):
                run()
        # recovery is a plain re-run of the request on a fresh engine
        assert _comparable(run()) == _comparable(golden)

    # 1: first evaluation of the initial design; 3: its last; 7: after the
    # last evaluation, before the outcome is built
    @pytest.mark.parametrize("kill_at", [1, 3, 7])
    @pytest.mark.parametrize("strategy", ["lens", "traditional", "random"])
    def test_rerun_matches_at_every_kill_point(
        self, small_search_space, uninterrupted, strategy, kill_at
    ):
        with faults.inject(
            FaultInjector(kill_at_evaluation=kill_at, kill_mode="raise")
        ):
            with pytest.raises(KilledByFault):
                _killed_search(small_search_space, strategy)
        rerun = _killed_search(small_search_space, strategy)
        assert _comparable(rerun) == uninterrupted(strategy)

    def test_rerun_on_the_killed_runs_engine_matches(
        self, small_search_space, uninterrupted
    ):
        """A loop that retries a cell in-process (a deadline kill is
        retryable) reuses the engine the killed attempt warmed: that attempt
        costed the re-run's own pools, so the cached values are the ones the
        re-run would compute."""
        engine = EvaluationEngine()
        with faults.inject(FaultInjector(kill_at_evaluation=5, kill_mode="raise")):
            with pytest.raises(KilledByFault):
                _killed_search(small_search_space, "lens", engine)
        rerun = _killed_search(small_search_space, "lens", engine)
        # the five candidates the killed attempt evaluated come from the cache
        assert rerun.engine_stats["predictor_hits"] == 1
        assert rerun.engine_stats["partition_hits"] == 5
        assert _comparable(rerun) == uninterrupted("lens")
