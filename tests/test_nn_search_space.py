"""Tests for the LENS VGG-derived search space (paper Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.search_space import LensSearchSpace


class TestSpaceDefinition:
    def test_default_matches_paper_figure_4(self):
        space = LensSearchSpace()
        assert space.num_blocks == 5
        assert space.layers_per_block == (1, 2, 3)
        assert space.kernel_sizes == (3, 5, 7)
        assert space.filter_counts == (24, 36, 64, 96, 128, 256)
        assert space.fc_units == (256, 512, 1024, 2048, 4096, 8192)
        assert space.min_pool_layers == 4

    def test_gene_count(self):
        # 5 blocks * 4 genes + 4 fully-connected genes.
        assert LensSearchSpace().num_genes == 24

    def test_total_combinations_is_large(self):
        assert LensSearchSpace().total_combinations() > 1e9

    def test_rejects_impossible_pool_constraint(self):
        with pytest.raises(ValueError):
            LensSearchSpace(num_blocks=3, min_pool_layers=4)


class TestValidityAndSampling:
    def test_non_integral_genotypes_are_rejected_not_truncated(self, search_space, rng):
        # 0.9 used to truncate to gene index 0
        with pytest.raises(ValueError, match="must be integers"):
            search_space.to_features([0.9] * search_space.num_genes)
        genotype = search_space.sample(rng)
        with pytest.raises(ValueError, match="must be integers"):
            search_space.is_valid(genotype + 0.5)
        assert search_space.is_valid(genotype.astype(float))

    def test_sampled_genotypes_are_valid(self, search_space, rng):
        for _ in range(50):
            genotype = search_space.sample(rng)
            assert search_space.is_valid(genotype)
            values = search_space.encoding.values(genotype)
            assert sum(values[f"block{i}_pool"] for i in range(1, 6)) >= 4

    def test_repair_fixes_pooling_and_fc(self, search_space, rng):
        genotype = search_space.sample(rng)
        values = search_space.encoding.values(genotype)
        values.update({f"block{i}_pool": False for i in range(1, 6)})
        values["fc1_present"] = False
        values["fc2_present"] = False
        broken = search_space.encoding.indices_from_values(values)
        assert not search_space.is_valid(broken)
        repaired = search_space.repair(broken, rng)
        assert search_space.is_valid(repaired)

    def test_sample_batch_shape(self, search_space, rng):
        batch = search_space.sample_batch(7, rng)
        assert batch.shape == (7, search_space.num_genes)

    def test_neighbours_are_valid(self, search_space, rng):
        genotype = search_space.sample(rng)
        neighbours = search_space.neighbours(genotype, 10, rng)
        assert neighbours.shape == (10, search_space.num_genes)
        for neighbour in neighbours:
            assert search_space.is_valid(neighbour)

    def test_sampling_is_seed_deterministic(self, search_space):
        a = search_space.sample(123)
        b = search_space.sample(123)
        assert np.array_equal(a, b)


class TestDecoding:
    def test_decode_respects_constraints(self, search_space, rng):
        genotype = search_space.sample(rng)
        arch = search_space.decode_for_accuracy(genotype)
        assert arch.count_layers("pool") >= 4
        assert arch.count_layers("fc") >= 2  # at least one hidden FC plus classifier
        assert arch.output_shape == (10,)
        assert arch.input_shape == (3, 32, 32)

    def test_decode_for_performance_uses_224_input(self, search_space, rng):
        genotype = search_space.sample(rng)
        arch = search_space.decode_for_performance(genotype)
        assert arch.input_shape == (3, 224, 224)
        assert arch.input_bytes == 224 * 224 * 3

    def test_decode_rejects_invalid_genotype(self, search_space, rng):
        genotype = search_space.sample(rng)
        values = search_space.encoding.values(genotype)
        values.update({f"block{i}_pool": False for i in range(1, 6)})
        broken = search_space.encoding.indices_from_values(values)
        with pytest.raises(ValueError):
            search_space.decode(broken)

    def test_decoded_conv_layers_use_batch_norm_and_relu(self, search_space, rng):
        genotype = search_space.sample(rng)
        arch = search_space.decode_for_accuracy(genotype)
        conv_layers = [l for l in arch.layers if l.layer_type == "conv"]
        assert all(l.batch_norm for l in conv_layers)
        assert all(l.activation == "relu" for l in conv_layers)
        assert arch.layers[-1].activation == "softmax"

    def test_candidate_name_is_deterministic(self, search_space, rng):
        genotype = search_space.sample(rng)
        assert search_space.candidate_name(genotype) == search_space.candidate_name(genotype)

    def test_features_live_in_unit_cube(self, search_space, rng):
        genotype = search_space.sample(rng)
        features = search_space.to_features(genotype)
        assert features.shape == (search_space.num_genes,)
        assert np.all(features >= 0) and np.all(features <= 1)

    def test_block_structure_matches_genotype(self, search_space):
        values = {
            "block1_layers": 2, "block1_kernel": 5, "block1_filters": 64, "block1_pool": True,
            "block2_layers": 1, "block2_kernel": 3, "block2_filters": 24, "block2_pool": True,
            "block3_layers": 3, "block3_kernel": 7, "block3_filters": 128, "block3_pool": True,
            "block4_layers": 1, "block4_kernel": 3, "block4_filters": 96, "block4_pool": True,
            "block5_layers": 1, "block5_kernel": 3, "block5_filters": 256, "block5_pool": False,
            "fc1_present": True, "fc1_units": 1024, "fc2_present": False, "fc2_units": 256,
        }
        genotype = search_space.encoding.indices_from_values(values)
        arch = search_space.decode_for_accuracy(genotype)
        assert arch.count_layers("conv") == 8
        assert arch.count_layers("pool") == 4
        names = [l.name for l in arch.layers if l.layer_type == "fc"]
        assert names == ["fc1", "classifier"]
        first_block = [l for l in arch.layers if l.name.startswith("conv1_")]
        assert len(first_block) == 2
        assert first_block[0].kernel_size == 5
        assert first_block[0].out_channels == 64


class TestSerialization:
    def test_describe_mentions_constraints(self):
        assert "pooling" in LensSearchSpace().describe()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_every_sampled_genotype_decodes_to_consistent_architecture(seed):
    space = LensSearchSpace()
    genotype = space.sample(seed)
    arch = space.decode_for_accuracy(genotype)
    # Shape inference succeeds and the model ends in the classifier.
    assert arch.output_shape == (10,)
    # Pool constraint carries through decoding.
    assert arch.count_layers("pool") >= space.min_pool_layers
    # The accuracy and performance decodings share the same topology.
    perf = space.decode_for_performance(genotype)
    assert [l.name for l in perf.layers] == [l.name for l in arch.layers]
