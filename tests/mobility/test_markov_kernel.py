"""Unit tests for the batched fleet kernels behind the vectorized engine.

The hypothesis parity suites (``tests/perf/test_workload_parity.py``)
pin whole-pipeline bit-equality; these tests pin the individual kernel
pieces — CSR plumbing, edge cases (empty fleets, length-1 sequences,
singleton supports) and the structural invariants the streaming layer
leans on.
"""

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.markov_kernel import (
    FleetCounts,
    SequenceChunk,
    fit_fleet,
    fleet_profiles,
    take_csr,
    topm_hit_ranks,
)


class TestTakeCsr:
    def test_gathers_rows_in_requested_order(self):
        values = np.array([10, 11, 20, 30, 31, 32])
        indptr = np.array([0, 2, 3, 6])
        out, optr = take_csr(values, indptr, np.array([2, 0]))
        assert out.tolist() == [30, 31, 32, 10, 11]
        assert optr.tolist() == [0, 3, 5]

    def test_empty_rows_and_empty_selection(self):
        values = np.array([1, 2])
        indptr = np.array([0, 0, 2, 2])
        out, optr = take_csr(values, indptr, np.array([0, 2]))
        assert out.size == 0 and optr.tolist() == [0, 0, 0]
        out, optr = take_csr(values, indptr, np.array([], dtype=np.int64))
        assert out.size == 0 and optr.tolist() == [0]

    def test_repeated_rows_duplicate_segments(self):
        values = np.array([5, 6, 7])
        indptr = np.array([0, 3])
        out, optr = take_csr(values, indptr, np.array([0, 0]))
        assert out.tolist() == [5, 6, 7, 5, 6, 7]
        assert optr.tolist() == [0, 3, 6]


class TestSequenceChunk:
    def test_from_mapping_roundtrip(self):
        seqs = {3: [1, 2, 1], 7: [4], 9: []}
        chunk = SequenceChunk.from_mapping(seqs)
        assert chunk.n_taxis == 3
        assert chunk.taxi_ids.tolist() == [3, 7, 9]
        assert chunk.sequence_of(0).tolist() == [1, 2, 1]
        assert chunk.sequence_of(1).tolist() == [4]
        assert chunk.sequence_of(2).tolist() == []

    def test_indptr_validation(self):
        with pytest.raises(ValidationError):
            SequenceChunk(np.array([1]), np.array([0, 1]), np.array([0]))
        with pytest.raises(ValidationError):
            SequenceChunk(np.array([1]), np.array([0]), np.array([1, 1]))
        with pytest.raises(ValidationError):
            SequenceChunk(np.array([1, 2]), np.array([0]), np.array([0, 2, 1]))
        with pytest.raises(ValidationError):
            SequenceChunk(np.array([1]), np.array([0, 1]), np.array([0, 3]))


class TestFitFleet:
    def test_counts_match_reference_model(self):
        seqs = {0: [2, 5, 2, 2, 5], 1: [9, 9], 2: [1]}
        fleet = fit_fleet(SequenceChunk.from_mapping(seqs))
        ref = MarkovMobilityModel.from_sequences_reference(seqs)
        # Length-1 taxi 2 is skipped by both.
        assert fleet.taxi_ids.tolist() == list(ref.taxi_ids) == [0, 1]
        for row, taxi_id in enumerate(fleet.taxi_ids.tolist()):
            model = ref.model_for(taxi_id)
            assert fleet.locations_of(row).tolist() == list(model.locations)
            assert (fleet.counts_of(row) == model.counts).all()

    def test_empty_and_all_short_fleets(self):
        assert fit_fleet(SequenceChunk.from_mapping({})).n_taxis == 0
        fleet = fit_fleet(SequenceChunk.from_mapping({1: [4], 2: []}))
        assert fleet.n_taxis == 0
        assert fleet.counts_flat.size == 0

    def test_negative_and_sparse_cell_ids(self):
        seqs = {0: [-3, 1_000_000, -3]}
        fleet = fit_fleet(SequenceChunk.from_mapping(seqs))
        assert fleet.locations_of(0).tolist() == [-3, 1_000_000]
        assert fleet.counts_of(0).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_counts_are_integral(self):
        seqs = {0: list(np.random.default_rng(3).integers(0, 6, size=50))}
        fleet = fit_fleet(SequenceChunk.from_mapping(seqs))
        counts = fleet.counts_of(0)
        assert (counts == counts.astype(np.int64)).all()
        assert counts.sum() == 49  # one transition per consecutive pair


class TestFleetCounts:
    def test_from_models_and_sorted_by_taxi(self):
        seqs = {5: [1, 2, 1], 2: [4, 4, 4]}
        ref = MarkovMobilityModel.from_sequences_reference(seqs)
        fleet = FleetCounts.from_models(
            {t: ref.model_for(t) for t in ref.taxi_ids}
        )
        assert fleet.taxi_ids.tolist() == [2, 5]
        assert fleet.sorted_by_taxi() is fleet  # already ascending: no repack
        assert fleet.locations_of(0).tolist() == [4]
        assert fleet.counts_of(1).shape == (2, 2)

    def test_sorted_by_taxi_reorders(self):
        fleet = FleetCounts(
            taxi_ids=np.array([7, 3]),
            loc_indptr=np.array([0, 1, 3]),
            loc_cells=np.array([9, 1, 2]),
            sq_indptr=np.array([0, 1, 5]),
            counts_flat=np.array([4.0, 0.0, 1.0, 2.0, 3.0]),
        )
        out = fleet.sorted_by_taxi()
        assert out.taxi_ids.tolist() == [3, 7]
        assert out.locations_of(0).tolist() == [1, 2]
        assert out.counts_of(1).tolist() == [[4.0]]


class TestFleetProfiles:
    def fleet(self, seqs):
        return fit_fleet(SequenceChunk.from_mapping(seqs))

    def test_ranked_matches_reference_reach_profile(self):
        seqs = {0: [1, 2, 3, 1, 2, 1], 1: [5, 5, 6, 5]}
        ref = MarkovMobilityModel.from_sequences_reference(seqs)
        profiles = fleet_profiles(self.fleet(seqs), "laplace", horizon=5)
        for row, taxi_id in enumerate(profiles.taxi_ids.tolist()):
            current = int(profiles.current[row])
            expect = sorted(
                ref.reach_profile(taxi_id, current, horizon=5).items(),
                key=lambda kv: (-kv[1], kv[0]),
            )
            cells, pos = profiles.ranked_of(row)
            assert cells.tolist() == [c for c, _ in expect]
            assert pos.tolist() == [p for _, p in expect]

    def test_max_keep_truncates_ranked_lists(self):
        seqs = {0: [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]}
        profiles = fleet_profiles(self.fleet(seqs), "laplace", 5, max_keep=2)
        cells, pos = profiles.ranked_of(0)
        assert cells.size == pos.size == 2
        # Reach values for *all* locations stay queryable regardless.
        assert profiles.loc_cells.size == 5

    def test_current_cells_override(self):
        seqs = {0: [1, 1, 1, 2]}
        forced = fleet_profiles(
            self.fleet(seqs), "laplace", 3, current_cells={0: 2}
        )
        assert forced.current.tolist() == [2]
        default = fleet_profiles(self.fleet(seqs), "laplace", 3)
        assert default.current.tolist() == [1]  # most-visited

    def test_reach_at_cell_presence_mask(self):
        seqs = {0: [1, 2, 1, 2], 1: [8, 9, 8]}
        profiles = fleet_profiles(self.fleet(seqs), "laplace", 4)
        values, present = profiles.reach_at_cell(2)
        assert present.tolist() == [True, False]
        assert values[0] > 0.0 and values[1] == 0.0
        values, present = profiles.reach_at_cell(777)
        assert not present.any() and (values == 0.0).all()

    def test_popular_cells_orders_by_count_then_cell(self):
        seqs = {0: [1, 2, 1, 2], 1: [2, 3, 2, 3], 2: [2, 1, 2, 1]}
        profiles = fleet_profiles(self.fleet(seqs), "laplace", 4)
        cells, counts = profiles.popular_cells()
        assert cells[0] == 2 and counts[0] == 3
        assert sorted(zip(-counts, cells)) == list(zip(-counts, cells))

    def test_invalid_smoothing_and_horizon(self):
        fleet = self.fleet({0: [1, 2]})
        with pytest.raises(ValidationError):
            fleet_profiles(fleet, "gauss", 5)
        with pytest.raises(ValidationError):
            fleet_profiles(fleet, "laplace", 0)

    def test_empty_fleet(self):
        profiles = fleet_profiles(FleetCounts.empty(), "laplace", 5)
        assert profiles.n_taxis == 0
        cells, counts = profiles.popular_cells()
        assert cells.size == counts.size == 0


class TestTopmHitRanks:
    def test_ranks_agree_with_predict_top(self):
        seqs = {0: [1, 2, 3, 1, 2, 1, 3, 3], 1: [5, 6, 5, 5, 6]}
        model = MarkovMobilityModel.from_sequences_reference(seqs)
        counts = FleetCounts.from_models({t: model.model_for(t) for t in model.taxi_ids})
        pairs = [(0, 1, 2), (0, 2, 1), (0, 3, 3), (1, 5, 6), (1, 6, 5)]
        ranks = topm_hit_ranks(
            counts,
            "laplace",
            np.array([r for r, _, _ in pairs]),
            np.array([c for _, c, _ in pairs]),
            np.array([n for _, _, n in pairs]),
        )
        for (row, cur, nxt), rank in zip(pairs, ranks.tolist()):
            taxi_id = int(counts.taxi_ids[row])
            for m in range(1, 5):
                top = model.predict_top(taxi_id, cur, m)
                assert (rank < m) == (nxt in top), (row, cur, nxt, m)

    def test_unknown_next_cell_never_hits(self):
        seqs = {0: [1, 2, 1]}
        counts = fit_fleet(SequenceChunk.from_mapping(seqs))
        ranks = topm_hit_ranks(
            counts, "laplace", np.array([0]), np.array([1]), np.array([99])
        )
        assert ranks[0] >= 2**31

    def test_empty_pairs(self):
        counts = fit_fleet(SequenceChunk.from_mapping({0: [1, 2]}))
        empty = np.array([], dtype=np.int64)
        assert topm_hit_ranks(counts, "laplace", empty, empty, empty).size == 0

    def test_invalid_smoothing(self):
        counts = fit_fleet(SequenceChunk.from_mapping({0: [1, 2]}))
        with pytest.raises(ValidationError):
            topm_hit_ranks(
                counts, "nope", np.array([0]), np.array([1]), np.array([2])
            )
