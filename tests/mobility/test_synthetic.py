"""Tests for the synthetic taxi fleet (DESIGN.md substitution 1)."""

import hashlib

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.mobility.grid import CityGrid
from repro.mobility.records import EventType
from repro.mobility.synthetic import FleetConfig, SyntheticTaxiFleet
from repro.simulation.experiments import build_testbed


@pytest.fixture(scope="module")
def small_fleet():
    return SyntheticTaxiFleet(
        CityGrid(), FleetConfig(n_taxis=20, events_per_taxi=60), seed=5
    )


class TestConfigValidation:
    def test_bad_support_range(self):
        with pytest.raises(ValidationError):
            FleetConfig(support_size_range=(1, 5))
        with pytest.raises(ValidationError):
            FleetConfig(support_size_range=(8, 4))

    def test_bad_taxi_count(self):
        with pytest.raises(ValidationError):
            FleetConfig(n_taxis=0)

    def test_bad_event_count(self):
        with pytest.raises(ValidationError):
            FleetConfig(events_per_taxi=1)

    def test_bad_dirichlet(self):
        with pytest.raises(ValidationError):
            FleetConfig(row_dirichlet=0.0)

    @pytest.mark.parametrize(
        "field", ["hotspot_scale_km", "locality_scale_km", "row_dirichlet", "mean_headway_s"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_scales_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FleetConfig(**{field: value})

    def test_negative_hotspot_count(self):
        with pytest.raises(ValidationError, match="n_hotspots"):
            FleetConfig(n_hotspots=-1)

    def test_no_hotspots_allowed(self):
        fleet = SyntheticTaxiFleet(CityGrid(), FleetConfig(n_taxis=2, n_hotspots=0), seed=1)
        assert len(fleet.ground_truth) == 2


class TestGroundTruth:
    def test_one_chain_per_taxi(self, small_fleet):
        assert len(small_fleet.ground_truth) == 20

    def test_transition_rows_are_distributions(self, small_fleet):
        for truth in small_fleet.ground_truth.values():
            matrix = truth.transition_matrix
            assert matrix.shape == (len(truth.support), len(truth.support))
            assert np.all(matrix >= 0)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=1e-9)

    def test_support_sizes_in_range(self, small_fleet):
        low, high = small_fleet.config.support_size_range
        for truth in small_fleet.ground_truth.values():
            assert low <= len(truth.support) <= high

    def test_support_cells_valid(self, small_fleet):
        for truth in small_fleet.ground_truth.values():
            for cell in truth.support:
                assert 0 <= cell < small_fleet.grid.n_cells

    def test_support_is_local(self, small_fleet):
        """All support cells lie within the home neighborhood radius."""
        max_dist = (
            small_fleet.config.home_radius_cells * 2 * small_fleet.grid.cell_km * 2**0.5
        )
        for truth in small_fleet.ground_truth.values():
            cells = truth.support
            for cell in cells:
                assert small_fleet.grid.distance_km(cells[0], cell) <= max_dist

    def test_next_distribution(self, small_fleet):
        truth = small_fleet.ground_truth[0]
        dist = truth.next_distribution(truth.support[0])
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        config = FleetConfig(n_taxis=5, events_per_taxi=40)
        a = SyntheticTaxiFleet(CityGrid(), config, seed=9)
        b = SyntheticTaxiFleet(CityGrid(), config, seed=9)
        for taxi_id in range(5):
            assert a.ground_truth[taxi_id].support == b.ground_truth[taxi_id].support
            np.testing.assert_array_equal(
                a.ground_truth[taxi_id].transition_matrix,
                b.ground_truth[taxi_id].transition_matrix,
            )

    def test_different_seeds_differ(self):
        config = FleetConfig(n_taxis=5, events_per_taxi=40)
        a = SyntheticTaxiFleet(CityGrid(), config, seed=1)
        b = SyntheticTaxiFleet(CityGrid(), config, seed=2)
        assert any(
            a.ground_truth[i].support != b.ground_truth[i].support for i in range(5)
        )

    def test_concentrated_region_confines_homes(self):
        grid = CityGrid()
        config = FleetConfig(n_taxis=15, events_per_taxi=40, region_radius_cells=3)
        fleet = SyntheticTaxiFleet(grid, config, seed=3)
        center = (grid.n_rows // 2) * grid.n_cols + grid.n_cols // 2
        max_km = (3 + config.home_radius_cells) * grid.cell_km * 2**0.5
        for truth in fleet.ground_truth.values():
            for cell in truth.support:
                assert grid.distance_km(center, cell) <= max_km + 1e-9


def reference_walk(fleet, taxi_id, n_steps, rng):
    """The per-step ``Generator.choice`` walk: the oracle for ``walk``."""
    truth = fleet.ground_truth[taxi_id]
    l = len(truth.support)
    current = int(rng.integers(l))
    path = [truth.support[current]]
    for _ in range(n_steps - 1):
        current = int(rng.choice(l, p=truth.transition_matrix[current]))
        path.append(truth.support[current])
    return path


class TestWalks:
    @pytest.mark.parametrize("n_steps", [1, 2, 400])
    def test_walk_matches_choice_oracle(self, small_fleet, n_steps):
        for taxi_id in (0, 7, 19):
            fast_rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
            assert small_fleet.walk(taxi_id, n_steps, fast_rng) == reference_walk(
                small_fleet, taxi_id, n_steps, oracle_rng
            )
            assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_empty_walk_rejected(self, small_fleet):
        with pytest.raises(ValidationError):
            small_fleet.walk(0, 0, np.random.default_rng(0))

    def test_walk_length(self, small_fleet):
        rng = np.random.default_rng(0)
        path = small_fleet.walk(0, 50, rng)
        assert len(path) == 50

    def test_walk_stays_on_support(self, small_fleet):
        rng = np.random.default_rng(0)
        support = set(small_fleet.ground_truth[0].support)
        assert set(small_fleet.walk(0, 100, rng)) <= support


class TestRecords:
    def test_record_count(self, small_fleet):
        records = small_fleet.generate_records()
        assert len(records) == 20 * 60

    def test_events_alternate_per_taxi(self, small_fleet):
        records = [r for r in small_fleet.generate_records() if r.taxi_id == 0]
        for i, record in enumerate(records):
            expected = EventType.PICKUP if i % 2 == 0 else EventType.DROPOFF
            assert record.event is expected

    def test_timestamps_increase_per_taxi(self, small_fleet):
        records = [r for r in small_fleet.generate_records() if r.taxi_id == 3]
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_points_inside_grid(self, small_fleet):
        for record in small_fleet.generate_records()[:500]:
            assert small_fleet.grid.contains(record.lon, record.lat)

    def test_points_map_back_to_walk_cells(self, small_fleet):
        """Each record's coordinates land in a support cell of its taxi."""
        records = small_fleet.generate_records()
        for record in records[:200]:
            cell = small_fleet.grid.cell_of(record.lon, record.lat)
            assert cell in small_fleet.ground_truth[record.taxi_id].support

    def test_records_deterministic(self):
        config = FleetConfig(n_taxis=4, events_per_taxi=30)
        a = SyntheticTaxiFleet(CityGrid(), config, seed=9).generate_records()
        b = SyntheticTaxiFleet(CityGrid(), config, seed=9).generate_records()
        assert [(r.taxi_id, r.timestamp, r.lon) for r in a] == [
            (r.taxi_id, r.timestamp, r.lon) for r in b
        ]


def records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.taxi_id},{float.hex(r.timestamp)},{float.hex(r.lon)},"
            f"{float.hex(r.lat)},{r.event.value}\n".encode()
        )
    return h.hexdigest()


def chains_digest(ground_truth) -> str:
    h = hashlib.sha256()
    for taxi_id in sorted(ground_truth):
        chain = ground_truth[taxi_id]
        h.update(f"{taxi_id}:{len(chain.support)}\n".encode())
        h.update(np.asarray(chain.support, dtype=np.int64).tobytes())
        h.update(chain.transition_matrix.tobytes())
    return h.hexdigest()


def dataset_digest(dataset) -> str:
    h = hashlib.sha256()
    for taxi_id in sorted(dataset.train):
        cells = ",".join(str(int(c)) for c in dataset.train[taxi_id])
        h.update(f"{taxi_id}:{cells}\n".encode())
    for pair in dataset.held_out:
        h.update(f"{pair.taxi_id},{pair.current_cell},{pair.next_cell}\n".encode())
    return h.hexdigest()


#: SHA-256 of records, chains and dataset of ``build_testbed(n_taxis=n,
#: seed=42, kind=k)``, keyed ``k`` for n = 30 and ``k-n`` otherwise; 250 taxis
#: is the size the CLI and the end-to-end benchmark build.  Fleet synthesis
#: must keep every float op and RNG draw in its order, so a faster synthesis
#: has to leave these unchanged.
SYNTHESIS_DIGESTS = {
    "dense": (
        "160179e5839229196dfe99c1f1570d0462cebfcd3be832f45d56cb5f973934e7",
        "5d35347ec69ca1825093127362e03139990122777f26f22707cf54aaadb24653",
        "ec6879cb81fac1fd4efa922bd6b6dee83aeb5b69a285212ce142a539333e8fa8",
    ),
    "citywide": (
        "5b697fc04c03b7ab98f147b4b6f5546f471ce75f14e6790b18735b9fa5059f60",
        "7cf1658c987557771f5d4d24b20c3d17b9a6cb11abde4849c40b5c67f4fef034",
        "ab061aad5c3b885cd9c851c7f895e682f82f1f54011e8c122f94bc71adea2533",
    ),
    "dense-250": (
        "4449ffa18e7705d5482d53300568dc95f66413502dc66c5a3ed639fe093dff64",
        "62901631cbe4580772620e7e1559c353c889e9206f41b01dd9770a9ac7249c2d",
        "6c4f36ff16bfae2e160fef7bc5ed283b2f55ce19009efb2ef17f77d7f14ca3f3",
    ),
    "citywide-250": (
        "2cbd711276dc517ac5e4f6dc6dccce7c73d51a4ac4c7b8c243483a0faf002674",
        "b9f952f8cc142b3e86fcf1b89630c608453d9dba669a8173970d6ba923c0814a",
        "79728973be126ab22b9df0013b9a80a977eae6221e6f8b2a36983697bbe09d83",
    ),
}


@pytest.mark.parametrize("key", sorted(SYNTHESIS_DIGESTS))
def test_fleet_synthesis_output_pinned(key):
    kind, _, n_taxis = key.partition("-")
    tb = build_testbed(n_taxis=int(n_taxis or 30), seed=42, kind=kind)
    assert (
        records_digest(tb.fleet.generate_records()),
        chains_digest(tb.fleet.ground_truth),
        dataset_digest(tb.dataset),
    ) == SYNTHESIS_DIGESTS[key]
