"""Tests for repro.nn.encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.encoding import EncodingScheme, Gene


def simple_scheme() -> EncodingScheme:
    return EncodingScheme(
        [
            Gene("layers", (1, 2, 3)),
            Gene("kernel", (3, 5, 7)),
            Gene("filters", (24, 36, 64, 96, 128, 256)),
            Gene("pool", (False, True)),
        ]
    )


class TestGene:
    def test_cardinality_and_lookup(self):
        gene = Gene("kernel", (3, 5, 7))
        assert gene.cardinality == 3
        assert gene.value(1) == 5
        assert gene.index_of(7) == 2

    def test_rejects_empty_or_duplicate_choices(self):
        with pytest.raises(ValueError):
            Gene("x", ())
        with pytest.raises(ValueError):
            Gene("x", (1, 1))

    def test_value_out_of_range(self):
        with pytest.raises(IndexError):
            Gene("x", (1, 2)).value(5)

    def test_index_of_unknown_value(self):
        with pytest.raises(ValueError):
            Gene("x", (1, 2)).index_of(9)


class TestEncodingScheme:
    def test_rejects_duplicate_gene_names(self):
        with pytest.raises(ValueError):
            EncodingScheme([Gene("a", (1,)), Gene("a", (2,))])

    def test_total_combinations(self):
        assert simple_scheme().total_combinations() == 3 * 3 * 6 * 2

    def test_values_round_trip(self):
        scheme = simple_scheme()
        indices = np.array([2, 0, 5, 1])
        values = scheme.values(indices)
        assert values == {"layers": 3, "kernel": 3, "filters": 256, "pool": True}
        assert np.array_equal(scheme.indices_from_values(values), indices)

    def test_indices_from_values_requires_all_genes(self):
        with pytest.raises(ValueError, match="missing"):
            simple_scheme().indices_from_values({"layers": 1})

    def test_validate_rejects_wrong_length_and_range(self):
        scheme = simple_scheme()
        with pytest.raises(ValueError):
            scheme.validate_indices([0, 0, 0])
        with pytest.raises(ValueError):
            scheme.validate_indices([0, 0, 9, 0])

    def test_validate_rejects_non_integral_indices(self):
        scheme = simple_scheme()
        for bad in ([0.9, 0, 0, 0], [0, 0, 1.5, 0], [0, np.nan, 0, 0], [0, 0, 0, np.inf]):
            with pytest.raises(ValueError, match="must be integers"):
                scheme.validate_indices(bad)
        with pytest.raises(ValueError, match="must be integers"):
            scheme.to_unit(np.array([0, 1, 2, 1]) + 0.5)

    def test_validate_converts_integral_values_to_int64(self):
        scheme = simple_scheme()
        for ok in ([2.0, 0.0, 5.0, 1.0], np.array([2, 0, 5, 1], dtype=np.int32), [2, 0, 5, True]):
            arr = scheme.validate_indices(ok)
            assert arr.dtype == np.int64
            assert arr.tolist() == [2, 0, 5, 1]
        native = np.array([2, 0, 5, 1])
        assert scheme.validate_indices(native) is native

    def test_unit_projection_bounds_and_round_trip(self):
        scheme = simple_scheme()
        indices = scheme.sample_indices(0)
        unit = scheme.to_unit(indices)
        assert np.all(unit >= 0) and np.all(unit <= 1)
        assert np.array_equal(scheme.from_unit(unit), indices)

    def test_single_choice_gene_maps_to_half(self):
        scheme = EncodingScheme([Gene("only", (42,)), Gene("pick", (1, 2))])
        unit = scheme.to_unit([0, 1])
        assert unit[0] == 0.5
        assert unit[1] == 1.0

    def test_mutation_changes_at_least_one_gene(self):
        scheme = simple_scheme()
        rng = np.random.default_rng(0)
        base = scheme.sample_indices(rng)
        for _ in range(10):
            mutated = scheme.mutate(base, rng)
            assert np.count_nonzero(np.asarray(mutated) != base) >= 1

    def test_sampling_is_reproducible(self):
        scheme = simple_scheme()
        assert np.array_equal(scheme.sample_indices(5), scheme.sample_indices(5))

    def test_gene_lookup_by_name(self):
        scheme = simple_scheme()
        assert scheme.gene("filters").cardinality == 6
        assert scheme.gene_position("pool") == 3
        with pytest.raises(KeyError):
            scheme.gene("missing")

    def test_describe_lists_genes(self):
        text = simple_scheme().describe()
        assert "filters" in text and "kernel" in text


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_sampled_indices_always_valid_and_unit_round_trips(seed):
    scheme = simple_scheme()
    indices = scheme.sample_indices(seed)
    validated = scheme.validate_indices(indices)
    assert np.array_equal(validated, indices)
    assert np.array_equal(scheme.from_unit(scheme.to_unit(indices)), indices)


def test_cardinalities_are_read_only():
    scheme = simple_scheme()
    with pytest.raises(ValueError):
        scheme.cardinalities[0] = 9
    assert scheme.cardinalities.tolist() == [3, 3, 6, 2]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=69), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_property_sample_indices_draws_the_per_gene_stream(cardinalities, seed):
    """One vectorised draw equals one ``integers(0, c)`` call per gene.

    Every seeded golden (search sequences, perfbench digests) depends on
    this equivalence: ``sample_indices`` makes one call over the
    cardinality array, while the goldens were recorded with one call per
    gene.  A numpy upgrade that breaks it must fail here, not as drifting
    search results.
    """
    scheme = EncodingScheme(
        [Gene(f"g{i}", tuple(range(card))) for i, card in enumerate(cardinalities)]
    )
    vectorised = np.random.default_rng(seed)
    per_gene = np.random.default_rng(seed)
    for _ in range(3):
        drawn = scheme.sample_indices(vectorised)
        expected = [per_gene.integers(0, card) for card in cardinalities]
        assert drawn.tolist() == expected
        assert vectorised.random() == per_gene.random()
