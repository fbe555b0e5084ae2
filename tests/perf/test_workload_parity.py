"""Bit-exact parity: the workload engine against its per-taxi oracles.

The workload engine's array paths (fleet fitting, reach profiles,
instance assembly) are the only paths a run takes, and every observable
must be *bit-identical* to the per-taxi oracles that no keyword reaches
(``MarkovMobilityModel.from_sequences_reference`` and the generator's
``*_instance_reference`` methods): the
same fitted counts, the same UserType bids (costs, PoS dicts), the same
task pools, the same RepairReports, and the same ValidationError text
when a drawn fleet is genuinely infeasible (too few pool-overlapping
taxis, or every task dropped during repair).  The matrix here crosses
single/multi instances × smoothing variants × repair strategies on
hypothesis-drawn fleets.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ValidationError
from repro.mobility.markov import MarkovMobilityModel
from repro.workload.config import table2_defaults
from repro.workload.generator import WorkloadGenerator

SMOOTHINGS = ("laplace", "paper", "mle")
REPAIRS = ("boost", "drop", "none")


@st.composite
def fleets(draw, min_taxis=20, max_taxis=80):
    """A taxi -> sequence mapping with clustered supports (pool overlap)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_taxis = draw(st.integers(min_taxis, max_taxis))
    n_cells = draw(st.integers(12, 40))
    rng = np.random.default_rng(seed)
    sequences = {}
    for taxi_id in range(n_taxis):
        length = int(rng.integers(1, 30))  # length-1 taxis must be skipped
        base = int(rng.integers(0, n_cells))
        walk = np.cumsum(rng.integers(-1, 2, size=length)) + base
        sequences[taxi_id] = [int(c) % n_cells for c in walk]
    return sequences


def _outcome(fn):
    """The value or the exact ValidationError message — both must match."""
    try:
        return ("ok", fn())
    except ValidationError as exc:
        return ("error", str(exc))


def _user_tuple(user):
    return (user.user_id, user.cost, user.pos)


def assert_same_multi(vec, ref):
    tag_v, value_v = vec
    tag_r, value_r = ref
    assert tag_v == tag_r, (vec, ref)
    if tag_v == "error":
        assert value_v == value_r
        return
    assert value_v.task_cells == value_r.task_cells
    assert value_v.taxi_of_user == value_r.taxi_of_user
    assert value_v.repair == value_r.repair
    assert [
        (t.task_id, t.requirement) for t in value_v.instance.tasks
    ] == [(t.task_id, t.requirement) for t in value_r.instance.tasks]
    assert list(map(_user_tuple, value_v.instance.users)) == list(
        map(_user_tuple, value_r.instance.users)
    )


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
@settings(deadline=None, max_examples=12)
@given(sequences=fleets(), data=st.data())
def test_multi_task_bit_identical(smoothing, sequences, data):
    repair = data.draw(st.sampled_from(REPAIRS))
    seed = data.draw(st.integers(0, 10**6))
    n_tasks = data.draw(st.integers(2, 10))
    n_users = data.draw(st.integers(2, max(2, len(sequences) // 2)))
    config = dataclasses.replace(table2_defaults(), repair=repair)
    model = MarkovMobilityModel.from_sequences(sequences, smoothing=smoothing)
    oracle_model = MarkovMobilityModel.from_sequences_reference(
        sequences, smoothing=smoothing
    )
    production = WorkloadGenerator(model, config)
    oracle = WorkloadGenerator(oracle_model, config)
    assert_same_multi(
        _outcome(lambda: production.multi_task_instance(n_users, n_tasks, seed=seed)),
        _outcome(
            lambda: oracle.multi_task_instance_reference(n_users, n_tasks, seed=seed)
        ),
    )


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
@settings(deadline=None, max_examples=12)
@given(sequences=fleets(), data=st.data())
def test_single_task_bit_identical(smoothing, sequences, data):
    seed = data.draw(st.integers(0, 10**6))
    n_users = data.draw(st.integers(2, max(2, len(sequences) // 3)))
    model = MarkovMobilityModel.from_sequences(sequences, smoothing=smoothing)
    oracle_model = MarkovMobilityModel.from_sequences_reference(
        sequences, smoothing=smoothing
    )
    production = WorkloadGenerator(model)
    oracle = WorkloadGenerator(oracle_model)
    (tag_v, value_v), (tag_r, value_r) = (
        _outcome(lambda: production.single_task_instance(n_users, seed=seed)),
        _outcome(lambda: oracle.single_task_instance_reference(n_users, seed=seed)),
    )
    assert tag_v == tag_r
    if tag_v == "error":
        assert value_v == value_r
        return
    assert value_v.task_cell == value_r.task_cell
    assert value_v.taxi_of_user == value_r.taxi_of_user
    assert value_v.instance == value_r.instance


@settings(deadline=None, max_examples=10)
@given(sequences=fleets(min_taxis=30, max_taxis=90), data=st.data())
def test_fitted_models_identical(sequences, data):
    smoothing = data.draw(st.sampled_from(SMOOTHINGS))
    vec = MarkovMobilityModel.from_sequences(sequences, smoothing=smoothing)
    ref = MarkovMobilityModel.from_sequences_reference(sequences, smoothing=smoothing)
    assert vec.taxi_ids == ref.taxi_ids
    for taxi_id in vec.taxi_ids:
        model_v, model_r = vec.model_for(taxi_id), ref.model_for(taxi_id)
        assert model_v.locations == model_r.locations
        assert (model_v.counts == model_r.counts).all()

