"""End-to-end audit-trail tests: mechanisms → JSONL → report reconstruction."""

from __future__ import annotations

import pytest

from repro.core.critical import critical_contribution_multi
from repro.core.multi_task import MultiTaskMechanism
from repro.core.rewards import ec_reward
from repro.core.single_task import SingleTaskMechanism
from repro.core.types import AuctionInstance, SingleTaskInstance, Task, UserType
from repro.obs import (
    AuditTrail,
    EventLog,
    RunManifest,
    Tracer,
    build_report,
    format_report,
    read_events,
)

pytestmark = pytest.mark.obs


def multi_instance() -> AuctionInstance:
    users = [
        UserType(1, cost=2.0, pos={0: 0.6, 1: 0.4}),
        UserType(2, cost=3.0, pos={0: 0.5}),
        UserType(3, cost=1.5, pos={1: 0.7}),
        UserType(4, cost=4.0, pos={0: 0.3, 1: 0.3}),
        UserType(5, cost=2.5, pos={0: 0.4, 1: 0.2}),
    ]
    return AuctionInstance([Task(0, 0.8), Task(1, 0.8)], users)


def _older_perf_event(kernel: str, **counters) -> dict:
    """A ``mechanism.perf`` event as runs recorded it before the kernel
    label and the stage timers were retired."""
    return {
        "type": "event",
        "span_id": None,
        "name": "mechanism.perf",
        "kernel": kernel,
        "stage_seconds": {"winner_determination": 0.25},
        **counters,
    }


def single_instance() -> SingleTaskInstance:
    return SingleTaskInstance(
        requirement=1.2,
        user_ids=(1, 2, 3, 4),
        costs=(3.0, 2.0, 4.0, 2.5),
        contributions=(0.9, 0.8, 0.7, 0.5),
    )


class TestNoOpDefault:
    """Tracing off (the default) must not change mechanism results."""

    def test_multi_outcome_identical_with_and_without_tracer(self):
        instance = multi_instance()
        plain = MultiTaskMechanism().run(instance)
        traced = MultiTaskMechanism().run(instance, tracer=Tracer())
        assert traced == plain  # perf is excluded from equality by design

    def test_single_outcome_identical_with_and_without_tracer(self):
        instance = single_instance()
        plain = SingleTaskMechanism(epsilon=0.5).run(instance)
        traced = SingleTaskMechanism(epsilon=0.5).run(instance, tracer=Tracer())
        assert traced == plain

    def test_reference_pricing_traced_matches_fast(self):
        """The traced pricing oracle, one counterfactual rerun per winner,
        prices exactly as the traced mechanism."""
        instance = multi_instance()
        fast = MultiTaskMechanism().run(instance, tracer=Tracer())
        tracer = Tracer()
        reference = {
            uid: ec_reward(
                uid,
                critical_contribution_multi(instance, uid, tracer=tracer),
                instance.user_by_id(uid).cost,
                10.0,
            )
            for uid in fast.trace.selected
        }
        assert fast.rewards == reference
        assert len(tracer.events("audit.counterfactual")) == len(reference)


class TestAuditEvents:
    def test_multi_run_emits_full_trail(self):
        tracer = Tracer()
        outcome = MultiTaskMechanism().run(multi_instance(), tracer=tracer)
        span_names = [s.name for s in tracer.spans]
        assert "winner_determination" in span_names
        assert "reward_determination" in span_names
        assert span_names[-1] == "mechanism.run"
        selections = tracer.events("greedy.select")
        assert {e["user_id"] for e in selections} == set(outcome.winners)
        counterfactuals = tracer.events("audit.counterfactual")
        assert {e["user_id"] for e in counterfactuals} == set(outcome.winners)
        rewards = tracer.events("audit.reward")
        assert {e["user_id"] for e in rewards} == set(outcome.winners)
        for event in rewards:
            contract = outcome.rewards[event["user_id"]]
            assert event["success_reward"] == contract.success_reward
            assert event["failure_reward"] == contract.failure_reward
        assert len(tracer.events("mechanism.perf")) == 1

    def test_single_run_emits_probes_and_rewards(self):
        tracer = Tracer()
        outcome = SingleTaskMechanism(epsilon=0.5).run(single_instance(), tracer=tracer)
        probes = tracer.events("critical.probe")
        assert probes, "bisection probes should be audited"
        assert {e["user_id"] for e in probes} >= set(outcome.winners)
        assert {e["user_id"] for e in tracer.events("audit.reward")} == set(
            outcome.winners
        )

    def test_audit_trail_parses_and_explains(self):
        tracer = Tracer()
        outcome = MultiTaskMechanism().run(multi_instance(), tracer=tracer)
        trail = AuditTrail.from_events(tracer.records)
        uid = sorted(outcome.winners)[0]
        explanation = trail.explain(uid)
        assert "won in greedy iteration" in explanation
        assert "critical contribution" in explanation
        assert "EC contract" in explanation
        # The explanation quotes the actual contract numbers.
        assert f"{outcome.rewards[uid].success_reward:.4g}" in explanation

    def test_explain_unknown_user(self):
        trail = AuditTrail.from_events([])
        assert "no audit events" in trail.explain(99)


class TestReportReconstruction:
    """`repro report` rebuilds everything from the run directory alone."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        with EventLog(tmp_path / "events.jsonl") as log:
            tracer = Tracer(sink=log.append, keep_records=False)
            MultiTaskMechanism().run(multi_instance(), tracer=tracer)
            SingleTaskMechanism(epsilon=0.5).run(single_instance(), tracer=tracer)
            log.append(
                {
                    "type": "event",
                    "span_id": None,
                    "name": "experiment.end",
                    "experiment": "demo",
                    "elapsed_seconds": 0.5,
                    "n_rows": 3,
                }
            )
        RunManifest(
            run_id="demo", command="run", seed=1, events_file="events.jsonl"
        ).write(tmp_path)
        return tmp_path

    def test_stage_timings_reconstructed(self, run_dir):
        report = build_report(run_dir)
        assert report.n_events == len(read_events(run_dir / "events.jsonl"))
        for stage in ("mechanism.run", "winner_determination", "reward_determination"):
            assert report.stage_seconds[stage] > 0.0
        assert report.stage_counts["mechanism.run"] == 2  # multi + single

    def test_reuse_fractions_reconstructed(self, run_dir):
        report = build_report(run_dir)
        assert 0.0 <= report.reuse_fractions["greedy_prefix_reuse"] <= 1.0
        assert "wins_cache_hit_rate" in report.reuse_fractions
        # Merged perf totals are work counters; stage time comes from spans.
        assert not any(key.startswith("stage.") for key in report.perf_totals)

    def test_experiment_summary_reconstructed(self, run_dir):
        report = build_report(run_dir)
        assert report.experiments == [
            {"experiment": "demo", "elapsed_seconds": 0.5, "n_rows": 3}
        ]

    def test_formatted_report_contains_explanations(self, run_dir):
        text = format_report(build_report(run_dir))
        assert "run demo" in text
        assert "stage timings" in text
        assert "reuse fractions" in text
        assert "payment explanations" in text
        assert "EC contract" in text

    def test_kernel_label_reconstructed(self, run_dir, tmp_path):
        """Runs now carry no label; an older run's ``kernel`` label and
        stage-timer dict still render (the dict is skipped)."""
        assert build_report(run_dir).perf_labels == {}
        report = build_report(
            tmp_path, records=[_older_perf_event("vectorized", greedy_iterations=3)]
        )
        assert report.perf_labels["kernel"] == ["vectorized"]
        assert report.perf_totals == {"greedy_iterations": 3.0}
        text = format_report(report)
        assert "perf labels" in text and "vectorized" in text

    def test_mixed_kernel_runs_list_both_labels(self, tmp_path):
        records = [_older_perf_event(k) for k in ("vectorized", "reference")]
        report = build_report(tmp_path, records=records)
        assert report.perf_labels["kernel"] == ["vectorized", "reference"]

    def test_report_without_manifest_still_works(self, run_dir):
        (run_dir / "MANIFEST.json").unlink()
        report = build_report(run_dir)
        assert report.manifest is None
        assert report.stage_seconds
        assert "no manifest found" in format_report(report)
