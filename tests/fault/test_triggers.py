"""Phase-targeted triggers: windows fire, targets resolve, no-ops
are recorded."""

import random

import pytest

from repro.fault.failures import FailurePlan
from repro.fault.outcomes import Outcome, run_and_classify
from repro.fault.triggers import (
    LEADER,
    PhaseTrigger,
    attach_trigger_injector,
)
from repro.machine import TRIGGER_WINDOWS
from tests.fault.helpers import ft_machine


def test_unknown_window_rejected():
    with pytest.raises(ValueError, match="unknown trigger window"):
        PhaseTrigger(window="ckpt_nonsense")


def test_bad_target_rejected():
    with pytest.raises(ValueError, match="target"):
        PhaseTrigger(window="ckpt_sync", target="somebody")


def test_all_windows_entered_on_a_faulty_run():
    """The coverage probe sees every named window on a run with
    checkpoints, one recovery and one membership change.  The transport
    window needs a retry storm, scripted here as three consecutive
    drops of one message; it is entered exactly once per crossing of
    the suspicion threshold."""
    from repro.fault.failures import MembershipEvent
    from repro.network.transport import DeliveryFate

    m = ft_machine(
        plan=[FailurePlan(time=15_000, node=2, repair_delay=1_000)],
        initial_members=5,
        membership_plan=[
            MembershipEvent(time=9_000, kind="join", node=5),
            MembershipEvent(time=20_000, kind="handoff"),
        ],
    )
    m.transport.faults.force(
        DeliveryFate.DROPPED, DeliveryFate.DROPPED, DeliveryFate.DROPPED
    )
    probe = attach_trigger_injector(m, [])
    m.run()
    for window in TRIGGER_WINDOWS:
        assert probe.windows_entered[window] >= 1, window
    assert probe.windows_entered["transport_retry_storm"] == (
        m.stats.transport_suspicions
    )


def test_observers_hear_every_failure_and_phase_window():
    """Any object on ``machine.observers`` gets the events it implements:
    one ``on_failure`` per injected failure, and the establishment and
    restoration windows."""

    class Recorder:
        def __init__(self):
            self.failures, self.windows = [], []

        def on_window(self, window):
            self.windows.append(window)

        def on_failure(self, node_id):
            self.failures.append(node_id)

    m = ft_machine(plan=[
        FailurePlan(time=8_000, node=2, repair_delay=1_000),
        FailurePlan(time=20_000, node=4, permanent=True),
    ])
    recorder = Recorder()
    m.observers.append(recorder)
    m.run()
    assert m.stats.n_failures == 2
    assert recorder.failures == [2, 4]
    assert {"ckpt_sync", "ckpt_create", "ckpt_commit", "recovery_scan",
            "reconfig"} <= set(recorder.windows)


def test_ckpt_leader_dies_during_commit():
    """The paper's hardest establishment case: the coordinating node
    fails after the commit window opened.  The machine must finish the
    work without the leader's help."""
    m = ft_machine(refs=3_000, stall_cycle_budget=100_000)
    injector = attach_trigger_injector(
        m,
        [PhaseTrigger(window="ckpt_commit", target=LEADER, repair_delay=2_000)],
        rng=random.Random(1),
    )
    outcome = run_and_classify(m, injector)
    assert len(injector.fired) == 1
    assert not outcome.is_defect, outcome.detail
    assert all(s.exhausted for s in m.all_streams())
    assert outcome.n_failures >= 1
    assert outcome.windows_entered["ckpt_commit"] >= 1


def test_trigger_occurrence_waits_for_nth_entry():
    m = ft_machine(refs=4_000, stall_cycle_budget=100_000)
    injector = attach_trigger_injector(
        m,
        [PhaseTrigger(window="ckpt_sync", target=LEADER,
                      repair_delay=1_500, occurrence=3)],
        rng=random.Random(2),
    )
    outcome = run_and_classify(m, injector)
    assert not outcome.is_defect, outcome.detail
    assert len(injector.fired) == 1
    # the machine had completed two full checkpoints before the hit
    assert outcome.windows_entered["ckpt_sync"] >= 3


def test_dead_target_becomes_recorded_noop():
    """A trigger aimed at a node that is already down fires as a
    recorded no-op, never an error (the fail-silent model has nothing
    left to fail)."""
    m = ft_machine(
        plan=[FailurePlan(time=5_000, node=3, repair_delay=30_000)],
        refs=3_000,
        stall_cycle_budget=100_000,
    )
    injector = attach_trigger_injector(
        m,
        # node 3 is down for 30k cycles; the recovery scan window opens
        # a detection latency after its failure
        [PhaseTrigger(window="recovery_scan", target=3)],
        rng=random.Random(3),
    )
    outcome = run_and_classify(m, injector)
    assert injector.skipped, "trigger should have resolved to a dead node"
    assert not injector.fired
    assert outcome.n_failures_skipped >= 1
    assert not outcome.is_defect, outcome.detail


def test_delay_lands_failure_after_window_entry():
    m = ft_machine(refs=3_000, stall_cycle_budget=100_000)
    injector = attach_trigger_injector(
        m,
        [PhaseTrigger(window="ckpt_create", target=LEADER,
                      repair_delay=1_500, delay=50)],
        rng=random.Random(4),
    )
    outcome = run_and_classify(m, injector)
    assert len(injector.fired) == 1
    assert not outcome.is_defect, outcome.detail


def test_trigger_failures_count_in_stats():
    m = ft_machine(refs=3_000, stall_cycle_budget=100_000)
    injector = attach_trigger_injector(
        m,
        [PhaseTrigger(window="ckpt_sync", target=1, repair_delay=1_500)],
        rng=random.Random(5),
    )
    outcome = run_and_classify(m, injector)
    assert outcome.n_failures >= 1
    assert outcome.outcome in (Outcome.RECOVERED, Outcome.DEGRADED,
                               Outcome.UNRECOVERABLE_EXPECTED)
