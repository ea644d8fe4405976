"""The pluggable search-space protocol and the three registered spaces."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import genotype as oracle
from oracles import partition as partition_oracle

from repro.api.registry import SEARCH_SPACES, RegistryError, register_search_space
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.search_space import LensSearchSpace, SeqConv1DSearchSpace
from repro.nn.spaces import DEFAULT_SEARCH_SPACE, EncodedSearchSpace
from repro.utils.rng import ensure_rng

BUILTIN_SPACES = ("lens-vgg", "resnet-v1", "seq-conv1d")

#: A store written by an earlier version (``tests/test_campaign_store.py``).
LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store"


class TestRegistry:
    def test_builtin_spaces_are_registered(self):
        assert set(SEARCH_SPACES.names()) == set(BUILTIN_SPACES)
        assert DEFAULT_SEARCH_SPACE == "lens-vgg"

    def test_create_returns_fresh_instances(self):
        first = SEARCH_SPACES.create("resnet-v1")
        second = SEARCH_SPACES.create("resnet-v1")
        assert isinstance(first, ResNetSearchSpace)
        assert first is not second

    def test_space_name_matches_registry_key(self):
        for name in BUILTIN_SPACES:
            assert SEARCH_SPACES.create(name).space_name == name

    def test_unknown_space_suggests_close_match(self):
        with pytest.raises(RegistryError, match="Did you mean 'resnet-v1'"):
            SEARCH_SPACES.get("resnet-v2")

    def test_register_custom_space(self):
        class TinySpace(LensSearchSpace):
            space_name = "tiny-vgg"

        register_search_space(
            "tiny-vgg", lambda: TinySpace(num_blocks=4, min_pool_layers=2)
        )
        try:
            assert "tiny-vgg" in SEARCH_SPACES
            space = SEARCH_SPACES.create("tiny-vgg")
            assert space.num_blocks == 4
        finally:
            SEARCH_SPACES.unregister("tiny-vgg")


class TestProtocolConformance:
    """Every built-in space honours the full EncodedSearchSpace contract."""

    @pytest.fixture(params=BUILTIN_SPACES)
    def space(self, request):
        return SEARCH_SPACES.create(request.param)

    def test_is_search_space(self, space):
        assert isinstance(space, EncodedSearchSpace)

    def test_sample_is_valid_and_deterministic(self, space):
        a = space.sample(ensure_rng(42))
        b = space.sample(ensure_rng(42))
        assert np.array_equal(a, b)
        assert space.is_valid(a)
        assert a.shape == (space.num_genes,)

    def test_sample_batch_shape(self, space):
        batch = space.sample_batch(5, ensure_rng(0))
        assert batch.shape == (5, space.num_genes)
        for genotype in batch:
            assert space.is_valid(genotype)

    def test_neighbours_are_valid_and_differ(self, space):
        rng = ensure_rng(7)
        genotype = space.sample(rng)
        neighbours = space.neighbours(genotype, 8, rng)
        assert neighbours.shape == (8, space.num_genes)
        assert any(not np.array_equal(n, genotype) for n in neighbours)
        for neighbour in neighbours:
            assert space.is_valid(neighbour)

    def test_features_live_in_unit_cube(self, space):
        features = space.to_features(space.sample(ensure_rng(3)))
        assert features.shape == (space.num_genes,)
        assert np.all(features >= 0.0) and np.all(features <= 1.0)

    def test_decode_both_shapes(self, space):
        genotype = space.sample(ensure_rng(11))
        accuracy = space.decode_for_accuracy(genotype)
        performance = space.decode_for_performance(genotype)
        assert accuracy.input_shape == tuple(space.accuracy_input_shape)
        assert performance.input_shape == tuple(space.performance_input_shape)
        accuracy.summarize()
        performance.summarize()

    def test_candidate_name_is_deterministic_and_prefixed(self, space):
        genotype = space.sample(ensure_rng(5))
        name = space.candidate_name(genotype)
        assert name == space.candidate_name(genotype)
        prefix = "lens" if space.space_name == "lens-vgg" else space.space_name
        assert name.startswith(prefix)

    def test_partition_graph_matches_decoded_architecture(self, space):
        """The pool costs each candidate with its decoded skip edges."""
        genotype = space.sample(ensure_rng(9))
        architecture = space.decode_for_performance(genotype)
        (graph,) = space.decode_pool([genotype]).performance.graphs
        assert graph == architecture.partition_graph()
        assert graph.num_layers == len(architecture.layers)
        assert graph.skip_edges == architecture.skip_edges

    def test_describe_mentions_the_space(self, space):
        assert space.describe()

    def test_is_valid_rejects_malformed_genotypes(self, space):
        with pytest.raises(ValueError, match="length"):
            space.is_valid([0, 0, 0])
        too_large = space.encoding.cardinalities.copy()
        with pytest.raises(ValueError, match="out of range"):
            space.is_valid(too_large)
        with pytest.raises(ValueError, match="out of range"):
            space.is_valid(np.full(space.num_genes, -1))

    def test_neighbours_rejects_a_count_below_one(self, space):
        genotype = space.sample(ensure_rng(0))
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            space.neighbours(genotype, 0, ensure_rng(0))


class TestResNetSpace:
    @pytest.fixture
    def space(self):
        return ResNetSearchSpace()

    def test_decoded_blocks_carry_skip_edges(self, space):
        genotype = space.sample(ensure_rng(0))
        values = space.encoding.values(genotype)
        expected_blocks = sum(
            int(values[f"stage{s}_blocks"]) for s in range(1, space.num_stages + 1)
        )
        architecture = space.decode_for_performance(genotype)
        assert len(architecture.skip_edges) == expected_blocks

    def test_skip_edges_join_identical_shapes(self, space):
        architecture = space.decode_for_performance(space.sample(ensure_rng(1)))
        summaries = architecture.summarize()
        for src, dst in architecture.skip_edges:
            assert summaries[src].output_shape == summaries[dst].output_shape

    def test_every_block_interior_is_uncuttable(self, space):
        architecture = space.decode_for_performance(space.sample(ensure_rng(2)))
        graph = architecture.partition_graph()
        for src, dst in architecture.skip_edges:
            for boundary in range(src + 1, dst):
                assert not partition_oracle.allows_cut_after(graph, boundary)
            # the block's entry boundary transmits the skip tensor itself
            assert partition_oracle.allows_cut_after(graph, src)

    def test_all_genotypes_are_valid(self, space):
        rng = ensure_rng(3)
        for _ in range(20):
            assert space.is_valid(space.encoding.sample_indices(rng))


class TestResNetVariants:
    def test_downsample_style_is_validated(self):
        with pytest.raises(ValueError, match="downsample"):
            ResNetSearchSpace(downsample="avgpool")

    def test_defaults_decode_identically_to_the_plain_space(self):
        """The new knobs at their defaults must not move decoded models."""
        plain = ResNetSearchSpace()
        explicit = ResNetSearchSpace(downsample="pool", projection_shortcuts=False)
        genotype = plain.sample(ensure_rng(5))
        assert explicit.decode(genotype) == plain.decode(genotype)

    def test_stride_downsampling_replaces_pool_and_transition(self):
        space = ResNetSearchSpace(downsample="stride")
        architecture = space.decode_for_performance(space.sample(ensure_rng(6)))
        names = [layer.name for layer in architecture.layers]
        assert any(name.endswith("_downsample") for name in names)
        assert not any(name.endswith("_pool") for name in names)
        assert not any(name.endswith("_transition") for name in names)
        # the strided convolutions still halve the spatial size each stage
        summaries = architecture.summarize()
        downsamples = [
            i for i, layer in enumerate(architecture.layers)
            if layer.name.endswith("_downsample")
        ]
        for index in downsamples:
            before = summaries[index - 1].output_shape
            after = summaries[index].output_shape
            assert after[1] == -(-before[1] // 2)  # ceil(h / 2)

    def test_stride_blocks_still_join_identical_shapes(self):
        space = ResNetSearchSpace(downsample="stride")
        architecture = space.decode_for_performance(space.sample(ensure_rng(7)))
        summaries = architecture.summarize()
        for src, dst in architecture.skip_edges:
            assert summaries[src].output_shape == summaries[dst].output_shape

    def test_projection_shortcuts_span_the_downsampling_layers(self):
        space = ResNetSearchSpace(projection_shortcuts=True)
        architecture = space.decode_for_performance(space.sample(ensure_rng(8)))
        pools = [
            i for i, layer in enumerate(architecture.layers)
            if layer.name.endswith("_pool")
        ]
        # each stage's first skip edge starts before its pool layer
        spanning = [
            (src, dst)
            for src, dst in architecture.skip_edges
            if any(src < pool < dst for pool in pools)
        ]
        assert len(spanning) == space.num_stages

    def test_projection_shortcuts_block_stage_boundary_cuts(self):
        identity = ResNetSearchSpace()
        projection = ResNetSearchSpace(projection_shortcuts=True)
        genotype = identity.sample(ensure_rng(9))
        id_graph = identity.decode_for_performance(genotype).partition_graph()
        proj_arch = projection.decode_for_performance(genotype)
        proj_graph = proj_arch.partition_graph()
        pools = [
            i for i, layer in enumerate(proj_arch.layers)
            if layer.name.endswith("_pool")
        ]
        for pool in pools:
            # the projection edge spans pool + transition, so cutting right
            # after either is illegal — with identity shortcuts both are fine
            assert partition_oracle.allows_cut_after(id_graph, pool)
            assert not partition_oracle.allows_cut_after(proj_graph, pool)
            assert partition_oracle.allows_cut_after(id_graph, pool + 1)
            assert not partition_oracle.allows_cut_after(proj_graph, pool + 1)
            # the stage input boundary itself stays legal: the cut tensor
            # there IS the shortcut tensor
            assert partition_oracle.allows_cut_after(proj_graph, pool - 1)
        assert len(partition_oracle.legal_cut_indices(proj_graph)) < len(
            partition_oracle.legal_cut_indices(id_graph)
        )

    @pytest.mark.parametrize("downsample", ["pool", "stride"])
    def test_projection_shortcut_architectures_summarize(self, downsample):
        """Projection edges join shapes across a downsampling: shape
        inference must accept them (a strided 1x1 projection reconciles the
        merge) rather than reject the whole architecture — the crash class
        that only surfaced once a search actually evaluated a candidate."""
        space = ResNetSearchSpace(
            downsample=downsample, projection_shortcuts=True
        )
        rng = ensure_rng(10)
        for _ in range(5):
            architecture = space.decode_for_performance(space.sample(rng))
            summaries = architecture.summarize()
            for src, dst in architecture.skip_edges:
                src_shape = summaries[src].output_shape
                dst_shape = summaries[dst].output_shape
                if src_shape == dst_shape:
                    continue
                # spanning edges shrink every spatial dim by exactly 2x
                assert all(
                    -(-s // 2) == d
                    for s, d in zip(src_shape[1:], dst_shape[1:])
                ), (src_shape, dst_shape)

    def test_projection_shortcut_search_runs_end_to_end(self):
        from repro.api import EvaluationEngine, run_search

        space = ResNetSearchSpace(
            downsample="stride", projection_shortcuts=True
        )
        outcome = run_search(
            strategy="lens",
            scenario="wifi-3mbps/jetson-tx2-gpu",
            search_space=space,
            engine=EvaluationEngine(),
            num_initial=4,
            num_iterations=2,
            candidate_pool_size=8,
            predictor_samples_per_type=40,
            seed=3,
        )
        assert outcome.candidates
        for candidate in outcome.candidates:
            graph = space.decode_for_performance(
                candidate.genotype
            ).partition_graph()
            for option in (
                candidate.best_latency_option,
                candidate.best_energy_option,
            ):
                if option.split_index is not None:  # None = no-split option
                    assert partition_oracle.allows_cut_after(graph, option.split_index)


class TestSeqConv1DSpace:
    @pytest.fixture
    def space(self):
        return SeqConv1DSearchSpace()

    def test_decodes_to_1d_layers(self, space):
        architecture = space.decode_for_performance(space.sample(ensure_rng(0)))
        types = {s.layer_type for s in architecture.summarize()}
        assert "conv1d" in types
        assert "pool1d" in types
        assert "conv" not in types

    def test_depth_counts_conv1d_layers(self, space):
        # one conv1d layer and a pool per block, then fc1 and the classifier
        genotype = [0, 0, 0, 1] * space.num_blocks + [1, 0]
        architecture = space.decode(genotype)
        assert architecture.count_layers("conv1d") == 4
        assert architecture.count_layers("fc") == 2
        assert architecture.depth == 6

    def test_pool_constraint_enforced(self, space):
        rng = ensure_rng(1)
        invalid = np.zeros(space.num_genes, dtype=int)  # every pool gene off
        assert not space.is_valid(invalid)
        repaired = space.repair(invalid, rng)
        assert space.is_valid(repaired)
        with pytest.raises(ValueError, match="constraints"):
            space.decode(invalid)

    def test_performance_model_has_partition_points(self, space):
        # the streaming window must shrink below the 96 kB input eventually
        architecture = space.decode_for_performance(space.sample(ensure_rng(2)))
        summaries = architecture.summarize()
        input_bytes = architecture.input_bytes
        assert any(
            s.output_bytes < input_bytes for s in summaries[:-1]
            if s.is_partition_candidate
        )


#: (space, dict-based validity oracle, dict-based repair oracle).
ORACLES = {
    "lens-vgg": (LensSearchSpace(), oracle.lens_is_valid, oracle.lens_repair),
    "lens-vgg-4-blocks": (
        LensSearchSpace(num_blocks=4, min_pool_layers=2),
        oracle.lens_is_valid,
        oracle.lens_repair,
    ),
    "seq-conv1d": (SeqConv1DSearchSpace(), oracle.seq_is_valid, oracle.seq_repair),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_validity_and_repair_match_the_dict_oracle(name, seed):
    """Array validity and repair equal the dict-based path, draw for draw.

    Genotypes are uniform over the unconstrained product, so most are
    invalid (about 86% for lens-vgg) and exercise repair.
    """
    space, is_valid, repair = ORACLES[name]
    genotype = space.encoding.sample_indices(seed)
    assert space.is_valid(genotype) == is_valid(space, genotype)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    repaired = space.repair(genotype, ours)
    assert np.array_equal(repaired, repair(space, genotype, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert space.is_valid(repaired) and is_valid(space, repaired)


#: One instance per built-in space, shared by the stream pins below.
SPACES = {name: SEARCH_SPACES.create(name) for name in BUILTIN_SPACES}


@pytest.mark.parametrize("name", BUILTIN_SPACES)
@pytest.mark.parametrize("probability", [0.0, 0.15, 1.0])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_mutate_draws_the_list_choice_stream(name, probability, seed):
    """Integer mutation draws equal ``rng.choice`` over the other choices.

    Every seeded golden depends on the mutation stream, so values and the
    generator state must match the list-based oracle after every step.
    """
    encoding = SPACES[name].encoding
    genotype = encoding.sample_indices(seed)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        mutated = encoding.mutate(genotype, ours, probability)
        expected = oracle.mutate(encoding, genotype, theirs, probability)
        assert mutated.dtype == np.int64
        assert mutated.tolist() == expected.tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state
        genotype = mutated


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(-(2**40), 2**40), max_size=40))
def test_property_genotype_digest_matches_the_scalar_fold(values):
    assert EncodedSearchSpace.genotype_digest(values) == oracle.digest(values)


@pytest.mark.parametrize("line", range(3))
def test_candidate_names_match_the_names_stored_in_the_legacy_store(line):
    """Names are persisted: stored candidates must keep theirs."""
    record = json.loads((LEGACY_STORE / "runs.jsonl").read_bytes().splitlines()[line])
    space = SEARCH_SPACES.create(record["outcome"]["request"]["search_space"])
    candidates = record["outcome"]["candidates"]
    genotypes = [candidate["genotype"] for candidate in candidates]
    names = [candidate["architecture_name"] for candidate in candidates]
    assert [space.candidate_name(g) for g in genotypes] == names
    assert [a.name for a in space.decode_pool(genotypes).performance] == names


class TestRepairContract:
    class BrokenRepairSpace(LensSearchSpace):
        """A lens-vgg space whose repair forgets to repair."""

        space_name = "broken-repair"

        def _repair_in_place(self, arr, rng):
            pass

    def test_sample_rejects_a_repair_that_leaves_the_genotype_invalid(self):
        space = self.BrokenRepairSpace()
        rng = ensure_rng(0)
        with pytest.raises(ValueError, match="left the genotype invalid"):
            for _ in range(50):  # most unconstrained draws are invalid
                space.sample(rng)

    def test_neighbours_rejects_a_repair_that_leaves_the_genotype_invalid(self):
        space = self.BrokenRepairSpace()
        # exactly the minimum of four pools, and only fc1: switching off any
        # of those genes breaks a constraint
        genotype = np.zeros(space.num_genes, dtype=int)
        genotype[space._pool_positions[:4]] = space._true_index
        genotype[space._fc_present_positions[0]] = space._true_index
        assert space.is_valid(genotype)
        with pytest.raises(ValueError, match="left the genotype invalid"):
            space.neighbours(genotype, 50, ensure_rng(0))

    @pytest.mark.parametrize("method", ["is_valid", "repair", "decode", "candidate_name"])
    def test_overriding_the_public_methods_fails_at_class_creation(self, method):
        with pytest.raises(TypeError, match=r"_satisfied\(arr\).*_repair_in_place\(arr, rng\)"):
            type("LegacySpace", (LensSearchSpace,), {method: lambda self, *args: True})
        with pytest.raises(TypeError, match=f"overrides {method}"):
            type("LegacyEncoded", (EncodedSearchSpace,), {method: lambda self, *args: True})
