"""Tests for Pareto utilities, archives and quality indicators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import front_history as oracle
from oracles import hypervolume as hypervolume_oracle
from oracles import pareto as pareto_oracle

from repro.optim.pareto import (
    FrontHistory,
    ParetoArchive,
    combined_front_composition,
    compute_front_history,
    coverage,
    default_reference_point,
    dominates,
    hypervolume,
    hypervolume_2d,
    hypervolume_3d,
    pareto_front_mask,
)


def _monte_carlo_hypervolume(points, reference, num_samples=40000, seed=0):
    """Plain MC estimate, independent of the library's implementations."""
    rng = np.random.default_rng(seed)
    reference = np.asarray(reference, dtype=float)
    ideal = np.asarray(points, dtype=float).min(axis=0)
    box = np.prod(reference - ideal)
    samples = rng.uniform(ideal, reference, size=(num_samples, reference.size))
    dominated = np.zeros(num_samples, dtype=bool)
    for point in np.asarray(points, dtype=float):
        dominated |= np.all(point <= samples, axis=1)
    return box * dominated.mean()


class TestDominance:
    def test_strict_dominance(self):
        assert dominates([1.0, 2.0], [2.0, 3.0])
        assert dominates([1.0, 2.0], [1.0, 3.0])

    def test_no_dominance_between_trade_offs(self):
        assert not dominates([1.0, 5.0], [2.0, 3.0])
        assert not dominates([2.0, 3.0], [1.0, 5.0])

    def test_identical_points_do_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1.0], [1.0, 2.0])


class TestFrontMask:
    def test_simple_front(self):
        Y = np.array([[1, 5], [2, 2], [5, 1], [4, 4], [3, 3]])
        mask = pareto_front_mask(Y)
        assert list(mask) == [True, True, True, False, False]

    def test_duplicates_are_kept(self):
        Y = np.array([[1, 1], [1, 1], [2, 2]])
        assert list(pareto_front_mask(Y)) == [True, True, False]

    def test_single_point(self):
        assert list(pareto_front_mask(np.array([[3.0, 4.0]]))) == [True]

    def test_empty_matrix(self):
        assert pareto_front_mask(np.empty((0, 3))).shape == (0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_equivalence_with_reference(self, seed):
        """The sort/block implementation must agree with the O(n^2) loop exactly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        k = int(rng.integers(1, 5))
        Y = rng.uniform(size=(n, k))
        assert np.array_equal(pareto_front_mask(Y), pareto_oracle.pareto_front_mask(Y))

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_equivalence_with_ties_and_duplicates(self, seed):
        """Quantised objectives force ties/duplicates; semantics must still match."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 200))
        Y = np.round(rng.uniform(size=(n, 3)) * 4) / 4
        duplicated = np.vstack([Y, Y[rng.integers(0, n, size=n // 2)]])
        assert np.array_equal(
            pareto_front_mask(duplicated), pareto_oracle.pareto_front_mask(duplicated)
        )

    def test_duplicates_of_front_points_all_survive_at_scale(self):
        rng = np.random.default_rng(0)
        Y = rng.uniform(size=(500, 2))
        mask = pareto_front_mask(Y)
        tripled = np.vstack([Y, Y[mask], Y[mask]])
        tripled_mask = pareto_front_mask(tripled)
        assert tripled_mask.sum() == 3 * mask.sum()

    def test_all_identical_rows(self):
        Y = np.ones((6, 3))
        assert pareto_front_mask(Y).all()

    def test_nan_rows_do_not_destroy_finite_front(self):
        """A NaN row is on the front and leaves the finite front alone."""
        Y = np.array([[0.5, 0.5], [np.nan, 0.1], [0.2, 0.9], [0.6, 0.6]])
        assert np.array_equal(pareto_front_mask(Y), pareto_oracle.pareto_front_mask(Y))
        assert list(pareto_front_mask(Y)[:3]) == [True, True, True]

    def test_all_nan_rows_are_all_on_the_front(self):
        assert pareto_front_mask(np.full((4, 2), np.nan)).all()

    def test_a_nan_row_behind_a_finite_row_stays_on_the_front(self):
        """[0, 0] beats [1, NaN] in the first objective but cannot dominate it."""
        Y = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]])
        assert list(pareto_front_mask(Y)) == [True, True, False]

    def test_infinities_compare_as_numbers(self):
        Y = np.array([[-np.inf, 5.0], [0.0, 5.0], [np.inf, 5.0], [1.0, -np.inf]])
        assert list(pareto_front_mask(Y)) == [True, False, False, True]
        assert pareto_front_mask(np.full((2, 2), np.inf)).all()

    def test_negative_zero_ties_with_zero(self):
        Y = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 1.5]])
        assert list(pareto_front_mask(Y)) == [True, True, False]

    def test_single_objective_keeps_every_minimum_and_every_nan(self):
        Y = np.array([[3.0], [1.0], [np.nan], [1.0], [2.0]])
        assert list(pareto_front_mask(Y)) == [False, True, True, True, False]

    def test_nan_rows_leave_the_finite_mask_unchanged(self):
        """Interleaving NaN rows moves no decision about the finite rows."""
        rng = np.random.default_rng(7)
        Y = np.round(rng.uniform(size=(200, 3)) * 8) / 8
        positions = [0, 50, 50, 120, 200]
        nan_rows = np.full((len(positions), 3), np.nan)
        nan_rows[1, 0] = 0.0  # a partial NaN row counts as a NaN row
        with_nan = np.insert(Y, positions, nan_rows, axis=0)
        is_nan = np.isnan(with_nan).any(axis=1)
        mask = pareto_front_mask(with_nan)
        assert mask[is_nan].all()
        assert np.array_equal(mask[~is_nan], pareto_front_mask(Y))


class TestArchive:
    def test_insertion_maintains_non_domination(self):
        archive = ParetoArchive(2)
        assert archive.add("a", [2.0, 2.0])
        assert archive.add("b", [1.0, 3.0])
        assert not archive.add("c", [3.0, 3.0])  # dominated by "a"
        assert archive.add("d", [1.5, 1.5])      # dominates "a", coexists with "b"
        assert len(archive) == 2
        assert {entry.payload for entry in archive.entries} == {"b", "d"}
        assert archive.add("e", [0.5, 0.5])      # dominates everything left
        assert len(archive) == 1
        assert [entry.payload for entry in archive.entries] == ["e"]

    def test_dimension_validation(self):
        archive = ParetoArchive(2)
        with pytest.raises(ValueError):
            archive.add("x", [1.0])
        with pytest.raises(ValueError):
            ParetoArchive(0)

    def test_empty_archive_matrix_shape(self):
        assert ParetoArchive(3).objective_matrix().shape == (0, 3)


class TestIndicators:
    def test_coverage_metric(self):
        A = np.array([[1.0, 1.0]])
        B = np.array([[2.0, 2.0], [0.5, 3.0], [3.0, 0.5]])
        assert coverage(A, B) == pytest.approx(1 / 3)
        assert coverage(B, A) == 0.0
        assert coverage(np.empty((0, 2)), B) == 0.0
        assert coverage(A, np.empty((0, 2))) == 0.0

    def test_combined_front_composition(self):
        A = np.array([[1.0, 4.0], [2.0, 2.0]])
        B = np.array([[4.0, 1.0], [3.0, 3.0]])
        composition = combined_front_composition(A, B)
        # Joint front: (1,4), (2,2), (4,1) -> 2 from A, 1 from B.
        assert composition["combined_size"] == 3
        assert composition["fraction_a"] == pytest.approx(2 / 3)
        assert composition["fraction_b"] == pytest.approx(1 / 3)

    def test_combined_front_with_empty_inputs(self):
        A = np.array([[1.0, 1.0]])
        empty = np.empty((0, 2))
        assert combined_front_composition(A, empty)["fraction_a"] == 1.0
        assert combined_front_composition(empty, A)["fraction_b"] == 1.0
        assert combined_front_composition(empty, empty)["combined_size"] == 0.0

    def test_hypervolume_2d_rectangle(self):
        points = np.array([[1.0, 1.0]])
        assert hypervolume_2d(points, [2.0, 2.0]) == pytest.approx(1.0)

    def test_hypervolume_2d_staircase(self):
        points = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        # Union of rectangles to reference (4, 4): 3x1 + 2x1 + 1x1.
        assert hypervolume_2d(points, [4.0, 4.0]) == pytest.approx(6.0)

    def test_hypervolume_ignores_points_outside_reference(self):
        points = np.array([[5.0, 5.0]])
        assert hypervolume_2d(points, [2.0, 2.0]) == 0.0

    def test_hypervolume_monte_carlo_close_to_exact_for_3d_box(self):
        points = np.array([[0.0, 0.0, 0.0]])
        estimate = hypervolume(points, [1.0, 1.0, 1.0], num_samples=5000, seed=0)
        assert estimate == pytest.approx(1.0, rel=0.05)

    def test_hypervolume_dimension_check(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[1.0, 2.0]]), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            hypervolume_2d(np.array([[1.0, 2.0, 3.0]]), [1.0, 2.0, 3.0])

    def test_hypervolume_4d_still_uses_monte_carlo(self):
        points = np.zeros((1, 4))
        estimate = hypervolume(points, [1.0] * 4, num_samples=5000, seed=0)
        assert estimate == pytest.approx(1.0, rel=0.05)


class TestHypervolume3D:
    def test_single_box(self):
        assert hypervolume_3d(np.array([[0.0, 0.0, 0.0]]), [2.0, 3.0, 4.0]) == (
            pytest.approx(24.0)
        )

    def test_two_disjoint_boxes(self):
        # Boxes to (2, 2, 2): point a covers [1,2]^3 (vol 1); point b covers
        # [0,2]x[1.5,2]x[1.5,2] (vol 0.5); overlap [1,2]x[1.5,2]x[1.5,2] = 0.25.
        points = np.array([[1.0, 1.0, 1.0], [0.0, 1.5, 1.5]])
        assert hypervolume_3d(points, [2.0, 2.0, 2.0]) == pytest.approx(1.25)

    def test_dominated_points_add_nothing(self):
        front = np.array([[0.0, 0.0, 0.0]])
        padded = np.vstack([front, [[0.5, 0.5, 0.5], [0.9, 0.1, 0.3]]])
        reference = [1.0, 1.0, 1.0]
        assert hypervolume_3d(padded, reference) == pytest.approx(
            hypervolume_3d(front, reference)
        )

    def test_duplicate_points_add_nothing(self):
        points = np.array([[0.2, 0.4, 0.1], [0.6, 0.1, 0.5]])
        doubled = np.vstack([points, points, points])
        reference = [1.0, 1.0, 1.0]
        assert hypervolume_3d(doubled, reference) == pytest.approx(
            hypervolume_3d(points, reference)
        )

    def test_point_on_reference_boundary_contributes_zero(self):
        assert hypervolume_3d(np.array([[1.0, 1.0, 1.0]]), [1.0, 1.0, 1.0]) == 0.0
        # One coordinate at the boundary: zero thickness in that dimension.
        assert hypervolume_3d(np.array([[0.0, 0.0, 1.0]]), [1.0, 1.0, 1.0]) == 0.0

    def test_all_points_outside_reference(self):
        points = np.array([[2.0, 0.1, 0.1], [0.1, 3.0, 0.1], [0.1, 0.1, 1.5]])
        assert hypervolume_3d(points, [1.0, 1.0, 1.0]) == 0.0

    def test_shared_z_slab_matches_2d_times_height(self):
        """Points with one common z reduce to a 2-D staircase times a height."""
        staircase = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        z = 0.5
        points = np.column_stack([staircase, np.full(len(staircase), z)])
        reference = [4.0, 4.0, 2.0]
        expected = hypervolume_2d(staircase, reference[:2]) * (reference[2] - z)
        assert hypervolume_3d(points, reference) == pytest.approx(expected)

    def test_dispatch_through_hypervolume(self):
        points = np.array([[0.1, 0.7, 0.3], [0.5, 0.2, 0.6]])
        reference = [1.0, 1.0, 1.0]
        assert hypervolume(points, reference) == pytest.approx(
            hypervolume_3d(points, reference)
        )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            hypervolume_3d(np.array([[1.0, 2.0]]), [1.0, 2.0])
        with pytest.raises(ValueError):
            hypervolume_3d(np.array([[1.0, 2.0, 3.0]]), [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_monte_carlo_on_random_fronts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        points = rng.uniform(0.0, 1.0, size=(n, 3))
        reference = [1.1, 1.1, 1.1]
        exact = hypervolume_3d(points, reference)
        estimate = _monte_carlo_hypervolume(
            points, reference, num_samples=60000, seed=seed
        )
        assert exact == pytest.approx(estimate, abs=0.03)


class TestSortAndArchiveEdgeCases:
    def test_empty_archive_views(self):
        archive = ParetoArchive(2)
        assert len(archive) == 0
        assert list(archive) == []
        assert archive.entries == ()
        assert archive.objective_matrix().shape == (0, 2)

    def test_single_point_archive(self):
        archive = ParetoArchive(3)
        assert archive.add("only", [1.0, 2.0, 3.0])
        assert len(archive) == 1
        assert archive.objective_matrix().shape == (1, 3)

    def test_all_dominated_pool_rejected(self):
        archive = ParetoArchive(2)
        archive.add("best", [0.0, 0.0])
        accepted = [
            archive.add(f"p{i}", [float(i + 1), float(i + 1)]) for i in range(10)
        ]
        assert not any(accepted)
        assert [entry.payload for entry in archive.entries] == ["best"]


class TestFrontHistory:
    def test_hypervolume_is_monotone_and_front_sizes_consistent(self, rng):
        Y = rng.uniform(size=(30, 3))
        history = compute_front_history(Y, ("a", "b", "c"))
        assert len(history) == 30
        volumes = history.hypervolumes()
        assert np.all(np.diff(volumes) >= -1e-12)
        assert history.final_hypervolume == pytest.approx(volumes[-1])
        # entry t describes the front over the first t+1 evaluations
        for t, entry in enumerate(history.entries):
            mask = pareto_front_mask(Y[: t + 1])
            assert entry.front_size == mask.sum()
            assert entry.joined_front == bool(mask[t])

    def test_first_evaluation_always_joins_the_front(self, rng):
        history = compute_front_history(rng.uniform(size=(5, 2)))
        assert history.entries[0].joined_front
        assert history.entries[0].front_size == 1

    def test_default_reference_point_encloses_all_observations(self, rng):
        Y = rng.uniform(10.0, 500.0, size=(40, 3))
        reference = default_reference_point(Y)
        assert np.all(Y < reference)

    def test_round_trip(self, rng):
        Y = rng.uniform(size=(12, 3))
        history = compute_front_history(
            Y,
            ("error_percent", "latency_s", "energy_j"),
            labels=[f"m{i}" for i in range(12)],
            iterations=list(range(12)),
        )
        clone = FrontHistory.from_dict(history.to_dict())
        assert clone == history

    def test_empty_sequence(self):
        history = compute_front_history(np.empty((0, 3)), ("a", "b", "c"))
        assert len(history) == 0
        assert history.final_hypervolume == 0.0
        assert history.final_front_size == 0
        assert history.front_advances() == []

    def test_reference_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            compute_front_history(rng.uniform(size=(4, 3)), reference=[1.0, 1.0])

    @pytest.mark.parametrize("field", ["labels", "iterations"])
    @pytest.mark.parametrize("length", [3, 5])
    def test_per_evaluation_fields_must_match_the_evaluations(self, rng, field, length):
        values = [f"m{i}" for i in range(length)] if field == "labels" else list(range(length))
        with pytest.raises(ValueError, match=f"{field} has {length} entries for 4 evaluations"):
            compute_front_history(rng.uniform(size=(4, 2)), **{field: values})


#: Coordinates from a coarse grid produce ties and duplicate rows.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_FINITE = st.one_of(_GRID, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _evaluation_sequences(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    finite_row = st.lists(_FINITE, min_size=k, max_size=k)
    odd_row = st.lists(st.one_of(_FINITE, _SPECIAL), min_size=k, max_size=k)
    rows = draw(
        st.lists(
            st.one_of(finite_row, finite_row, finite_row, odd_row),
            min_size=1,
            max_size=10 if k == 4 else 24,
        )
    )
    if draw(st.booleans()):  # replay earlier rows as exact duplicates
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    reference = draw(
        st.one_of(
            st.none(),
            st.lists(st.floats(min_value=-1.0, max_value=4.0), min_size=k, max_size=k),
        )
    )
    return np.array(rows, dtype=float), reference


def _history_json(function, objectives, reference):
    """The history as JSON text (NaN equals NaN there), or the error's name."""
    n = objectives.shape[0]
    try:
        with np.errstate(all="ignore"):
            history = function(
                objectives,
                ("a", "b", "c", "d")[: objectives.shape[1]],
                reference=reference,
                labels=[f"c{i}" for i in range(n)],
                iterations=[i // 2 for i in range(n)],
            )
    except OverflowError as exc:
        # With four objectives the Monte Carlo hypervolume rejects an infinite
        # or NaN sampling box; the incremental history must fail the same way.
        return type(exc).__name__
    return json.dumps(history.to_dict())


@settings(max_examples=150, deadline=None)
@given(_evaluation_sequences())
def test_property_incremental_front_history_matches_the_per_prefix_oracle(case):
    """Growing the front equals recomputing every prefix, bit for bit."""
    objectives, reference = case
    assert _history_json(compute_front_history, objectives, reference) == _history_json(
        oracle.compute_front_history, objectives, reference
    )


@st.composite
def _hypervolume_cases(draw):
    """2- or 3-objective point sets around a reference, odd values included.

    Coordinates mix a coarse grid (ties), free floats, NaN, ±inf, −0.0 and
    the reference's own coordinates (points on the box); the reference may
    hold inf or NaN, and replayed rows make duplicates.
    """
    k = draw(st.sampled_from([2, 3]))
    reference = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=-1.0, max_value=4.0),
                st.sampled_from([np.inf, np.nan, -0.0]),
            ),
            min_size=k,
            max_size=k,
        )
    )
    coordinate = st.one_of(
        _GRID,
        _FINITE,
        _SPECIAL,
        st.just(-0.0),
        st.sampled_from(reference),
        st.floats(min_value=4.0, max_value=6.0),  # outside a finite box
    )
    rows = draw(
        st.lists(st.lists(coordinate, min_size=k, max_size=k), min_size=1, max_size=24)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return np.array(rows, dtype=float), reference


@settings(max_examples=300, deadline=None)
@given(_hypervolume_cases())
def test_property_hypervolume_sweep_matches_the_slab_oracle_bit_for_bit(case):
    """The staircase sweeps equal one 2-D call per slab, as ``float.hex``."""
    points, reference = case
    exact = hypervolume_2d if points.shape[1] == 2 else hypervolume_3d
    exact_oracle = (
        hypervolume_oracle.hypervolume_2d
        if points.shape[1] == 2
        else hypervolume_oracle.hypervolume_3d
    )
    with np.errstate(all="ignore"):
        expected = float.hex(exact_oracle(points, reference))
        assert float.hex(exact(points, reference)) == expected
        assert float.hex(hypervolume(points, reference)) == expected


@st.composite
def _front_mask_cases(draw):
    """1- to 4-objective matrices with ties, NaN, ±inf, −0.0 and duplicate rows."""
    k = draw(st.integers(min_value=1, max_value=4))
    coordinate = st.one_of(_GRID, _FINITE, _SPECIAL, st.just(-0.0))
    rows = draw(
        st.lists(st.lists(coordinate, min_size=k, max_size=k), min_size=1, max_size=16)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_front_mask_cases())
def test_property_front_mask_matches_the_loop_oracle(objectives):
    """The sort/block scan equals the pairwise loop, NaN rows included."""
    assert np.array_equal(
        pareto_front_mask(objectives), pareto_oracle.pareto_front_mask(objectives)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_front_members_are_mutually_non_dominated(points):
    Y = np.array(points)
    front = Y[pareto_front_mask(Y)]
    assert front.shape[0] >= 1
    for i in range(front.shape[0]):
        for j in range(front.shape[0]):
            if i != j:
                assert not dominates(front[i], front[j])
    # Every dropped point is dominated by some front member.
    dropped = Y[~pareto_front_mask(Y)]
    for point in dropped:
        assert any(dominates(f, point) for f in front)
