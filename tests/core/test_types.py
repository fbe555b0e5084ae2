"""Tests for the domain types (Task, UserType, instances)."""

import math

import pytest

from repro.core.errors import ValidationError
from repro.core.transforms import pos_to_contribution
from repro.core.types import (
    AuctionInstance,
    SingleTaskInstance,
    Task,
    UserType,
    single_task_view,
)


class TestTask:
    def test_contribution_requirement(self):
        task = Task(0, 0.8)
        assert task.contribution_requirement == pytest.approx(-math.log(0.2))

    def test_zero_requirement_allowed(self):
        assert Task(0, 0.0).contribution_requirement == 0.0

    def test_requirement_one_rejected(self):
        with pytest.raises(ValidationError):
            Task(0, 1.0)

    def test_negative_requirement_rejected(self):
        with pytest.raises(ValidationError):
            Task(0, -0.1)

    def test_non_int_id_rejected(self):
        with pytest.raises(ValidationError):
            Task("a", 0.5)  # type: ignore[arg-type]


class TestUserType:
    def test_task_set_is_pos_keys(self):
        user = UserType(1, cost=2.0, pos={3: 0.5, 7: 0.2})
        assert user.task_set == frozenset({3, 7})

    def test_contribution_for_absent_task_is_zero(self):
        user = UserType(1, cost=2.0, pos={3: 0.5})
        assert user.contribution(99) == 0.0

    def test_total_contribution(self):
        user = UserType(1, cost=2.0, pos={0: 0.5, 1: 0.5})
        assert user.total_contribution() == pytest.approx(2 * pos_to_contribution(0.5))

    def test_pos_mapping_is_read_only(self):
        user = UserType(1, cost=2.0, pos={0: 0.5})
        with pytest.raises(TypeError):
            user.pos[0] = 0.9  # type: ignore[index]

    def test_pos_copied_from_input(self):
        source = {0: 0.5}
        user = UserType(1, cost=2.0, pos=source)
        source[0] = 0.9
        assert user.pos[0] == 0.5

    def test_empty_task_set_rejected(self):
        with pytest.raises(ValidationError):
            UserType(1, cost=2.0, pos={})

    def test_zero_cost_rejected(self):
        with pytest.raises(ValidationError):
            UserType(1, cost=0.0, pos={0: 0.5})

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            UserType(1, cost=-1.0, pos={0: 0.5})

    def test_pos_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            UserType(1, cost=1.0, pos={0: 1.5})
        with pytest.raises(ValidationError):
            UserType(1, cost=1.0, pos={0: -0.1})

    def test_with_pos_returns_new_object(self):
        user = UserType(1, cost=2.0, pos={0: 0.5})
        other = user.with_pos({0: 0.9})
        assert user.pos[0] == 0.5
        assert other.pos[0] == 0.9
        assert other.user_id == 1 and other.cost == 2.0

    def test_with_scaled_pos_clamps(self):
        user = UserType(1, cost=2.0, pos={0: 0.6})
        assert user.with_scaled_pos(2.0).pos[0] == 1.0
        assert user.with_scaled_pos(0.5).pos[0] == pytest.approx(0.3)

    def test_equality_and_hash(self):
        a = UserType(1, cost=2.0, pos={0: 0.5})
        b = UserType(1, cost=2.0, pos={0: 0.5})
        c = UserType(1, cost=2.0, pos={0: 0.6})
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestAuctionInstance:
    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValidationError):
            AuctionInstance(
                [Task(0, 0.5), Task(0, 0.6)], [UserType(1, cost=1.0, pos={0: 0.5})]
            )

    def test_duplicate_user_ids_rejected(self):
        with pytest.raises(ValidationError):
            AuctionInstance(
                [Task(0, 0.5)],
                [UserType(1, cost=1.0, pos={0: 0.5}), UserType(1, cost=2.0, pos={0: 0.2})],
            )

    def test_bid_on_unknown_task_rejected(self):
        with pytest.raises(ValidationError):
            AuctionInstance([Task(0, 0.5)], [UserType(1, cost=1.0, pos={1: 0.5})])

    def test_no_tasks_rejected(self):
        with pytest.raises(ValidationError):
            AuctionInstance([], [])

    def test_without_user(self, small_multi_task):
        smaller = small_multi_task.without_user(3)
        assert smaller.n_users == small_multi_task.n_users - 1
        with pytest.raises(KeyError):
            smaller.user_by_id(3)

    def test_with_replaced_user(self, small_multi_task):
        original = small_multi_task.user_by_id(1)
        replaced = small_multi_task.with_replaced_user(original.with_cost(9.0))
        assert replaced.user_by_id(1).cost == 9.0
        assert small_multi_task.user_by_id(1).cost == 2.0

    def test_equality_and_hash(self, small_multi_task):
        # Built from tasks and users alone; the user-id index is no field.
        rebuilt = AuctionInstance(small_multi_task.tasks, small_multi_task.users)
        assert rebuilt == small_multi_task and hash(rebuilt) == hash(small_multi_task)
        assert rebuilt != small_multi_task.without_user(3)

    def test_with_replaced_unknown_user_raises(self, small_multi_task):
        with pytest.raises(KeyError):
            small_multi_task.with_replaced_user(UserType(99, cost=1.0, pos={0: 0.5}))

    def test_coverage_and_feasibility(self, small_multi_task):
        assert small_multi_task.is_feasible()
        assert small_multi_task.uncoverable_tasks() == frozenset()
        for task in small_multi_task.tasks:
            assert small_multi_task.coverage(task.task_id) >= task.contribution_requirement

    def test_uncoverable_detected(self):
        instance = AuctionInstance(
            [Task(0, 0.9)], [UserType(1, cost=1.0, pos={0: 0.1})]
        )
        assert instance.uncoverable_tasks() == frozenset({0})
        assert not instance.is_feasible()


class TestSingleTaskInstance:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SingleTaskInstance(1.0, (1, 2), (1.0,), (0.5, 0.6))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            SingleTaskInstance(1.0, (1, 1), (1.0, 2.0), (0.5, 0.6))

    def test_negative_contribution_rejected(self):
        with pytest.raises(ValidationError):
            SingleTaskInstance(1.0, (1,), (1.0,), (-0.5,))

    def test_cost_and_contribution_of(self, small_single_task):
        assert small_single_task.cost_of(frozenset({0, 3})) == pytest.approx(6.0)
        assert small_single_task.contribution_of(frozenset({0, 3})) == pytest.approx(1.3)

    def test_with_contribution_counterfactual(self, small_single_task):
        modified = small_single_task.with_contribution(0, 2.0)
        assert modified.contributions[0] == 2.0
        assert small_single_task.contributions[0] == 0.9

    def test_without_user(self, small_single_task):
        smaller = small_single_task.without_user(2)
        assert smaller.n_users == 5
        assert 2 not in smaller.user_ids

    def test_feasibility(self, small_single_task):
        assert small_single_task.is_feasible()
        hard = SingleTaskInstance(100.0, (1,), (1.0,), (0.5,))
        assert not hard.is_feasible()


class TestSingleTaskView:
    def test_projects_participants_only(self, small_multi_task):
        view = single_task_view(small_multi_task, 0)
        # Task 0 is in the bundles of users 1, 2, 4, 5.
        assert set(view.user_ids) == {1, 2, 4, 5}
        assert view.requirement == pytest.approx(
            small_multi_task.task_by_id(0).contribution_requirement
        )

    def test_contributions_match_user_pos(self, small_multi_task):
        view = single_task_view(small_multi_task, 2)
        for uid, q in zip(view.user_ids, view.contributions):
            assert q == pytest.approx(small_multi_task.user_by_id(uid).contribution(2))

    def test_unknown_task_raises(self, small_multi_task):
        with pytest.raises(KeyError):
            single_task_view(small_multi_task, 42)
