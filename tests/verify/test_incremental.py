"""The incremental invariant observer reports exactly what the full audit
reports.

``ShadowObserver`` runs the observer's own (mostly incremental) check
and a full :func:`check_machine` audit on every transition and records
any disagreement; the tests drive it over model-event fuzz walks,
engine-driven runs and seeded protocol bugs.
"""

import pytest

from repro.coherence.injection import InjectionFailed
from repro.coherence.standard import ProtocolError
from repro.config import ArchConfig
from repro.fault.failures import FailurePlan
from repro.fault.triggers import attach_trigger_injector
from repro.kernel import available_backends
from repro.machine import Machine
from repro.memory.states import ItemState
from repro.verify.fuzz import fuzz_events
from repro.verify.invariants import check_machine
from repro.verify.model import ModelConfig, apply_event, build_machine, check
from repro.verify.mutations import MUTATIONS
from repro.verify.observer import InvariantObserver
from repro.workloads import make_workload
from repro.workloads.synthetic import UniformShared
from tests.helpers import bare_machine

pytestmark = pytest.mark.verify


class ShadowObserver(InvariantObserver):
    """Checks every transition both ways and records disagreements."""

    def __init__(self, machine, raise_on_violation=False):
        super().__init__(machine, raise_on_violation=raise_on_violation)
        self.mismatches = []

    def _evaluate(self, ctx):
        violations = super()._evaluate(ctx)
        full = check_machine(self.machine, ctx)
        if violations != full:
            self.mismatches.append((self.checks, ctx, violations, full))
        return violations


class FullObserver(InvariantObserver):
    """The pre-incremental observer: a full audit on every transition."""

    def _evaluate(self, ctx):
        self.full_audits += 1
        return check_machine(self.machine, ctx)


def _attach(machine, cls):
    return cls(machine, raise_on_violation=False).attach()


def _shadowed(mutate=None):
    """A ``build_machine`` hook attaching a shadow observer (after the
    optional mutation); the observers land in the returned list."""
    observers = []

    def hook(machine):
        if mutate is not None:
            mutate(machine)
        observers.append(_attach(machine, ShadowObserver))

    return hook, observers


def test_index_corruption_on_a_dirty_item_matches_the_full_audit():
    m = bare_machine(protocol="ecp")
    observer = _attach(m, ShadowObserver)
    m.protocol.write(0, 0, 0)  # item 0; the first check is a full audit
    m.nodes[0].am._groups["owned"].discard(0)  # corrupt behind set_state
    m.nodes[0].am.set_state(0, ItemState.EXCLUSIVE)  # no-op, marks item 0
    m.protocol.read(1, 128, 10_000)  # item 1: an incremental check
    assert observer.full_audits == 1
    assert [v.code for _, v in observer.violations] == ["AM-GROUP"]
    m.protocol.read(1, 256, 20_000)  # the index violation re-arms the audit
    assert observer.full_audits == 2
    assert len(observer.violations) == 2
    assert observer.mismatches == []


# ------------------------------------------------------------ fuzz walks

FUZZ_SCOPES = {
    "failures": ModelConfig(acting_nodes=3, n_items=2, failures=True),
    "membership": ModelConfig(acting_nodes=2, n_items=2, failures=True,
                              membership=True),
    "duplicates": ModelConfig(acting_nodes=2, n_items=2, duplicates=True),
}


@pytest.mark.parametrize("scope", sorted(FUZZ_SCOPES))
def test_incremental_equals_full_on_fuzz_walks(scope):
    checks = full_audits = 0
    for seed in range(6):
        hook, observers = _shadowed()
        report = fuzz_events(FUZZ_SCOPES[scope], seed, steps=150, mutate=hook)
        assert report.ok, report.summary()
        (observer,) = observers
        assert observer.mismatches == []
        checks += observer.checks
        full_audits += observer.full_audits
    # the walks really exercised the incremental path
    assert checks > 3 * full_audits > 0


# ------------------------------------------------------ engine-driven runs


def _run_cell(observer_cls, mutation=None):
    """A 6-node verified run with one transient failure; returns the
    observer and the name of the exception that ended the run, if any
    (a seeded bug may trip a protocol assertion after the first
    violation)."""
    cfg = ArchConfig(n_nodes=6, seed=11).with_ft(
        checkpoint_period_override=1_000, detection_latency=100
    )
    wl = UniformShared(n_procs=6, refs_per_proc=150, write_fraction=0.3,
                       window_items=12, seed=11)
    machine = Machine(
        cfg, wl, protocol="ecp",
        failure_plan=[FailurePlan(time=1_500, node=2, repair_delay=500)],
        stall_cycle_budget=200_000,
    )
    if mutation is not None:
        MUTATIONS[mutation].apply(machine)
    observer = _attach(machine, observer_cls)
    try:
        machine.run()
    except (ProtocolError, InjectionFailed) as exc:
        return observer, type(exc).__name__
    return observer, None


def test_incremental_equals_full_on_a_verified_run():
    observer, error = _run_cell(ShadowObserver)
    assert error is None
    assert observer.machine.stats.n_recoveries == 1
    assert observer.mismatches == []
    assert observer.violations == []
    assert observer.checks > 10 * observer.full_audits


#: ECP mutations the engine-driven cell reaches (the rest need model
#: events or other strategies; the model checker kills those).
REACHED_BY_RUN = (
    "commit-keeps-inv-ck",
    "commit-promotes-both-primary",
    "commit-skips-one-node",
    "lost-precommit-mark",
    "write-skips-inv-ck-degrade",
)


@pytest.mark.parametrize("name", REACHED_BY_RUN)
def test_mutation_first_detected_at_the_same_transition(name):
    shadow, shadow_error = _run_cell(ShadowObserver, name)
    full, full_error = _run_cell(FullObserver, name)
    assert shadow.mismatches == []
    assert shadow.violations, f"{name} was not detected"
    first_transition, first = shadow.violations[0]
    assert (first_transition, first.code, first.item) == (
        full.violations[0][0], full.violations[0][1].code,
        full.violations[0][1].item,
    )
    assert first.code in MUTATIONS[name].expected_codes
    assert shadow.violations == full.violations
    assert (shadow.machine.stats.invariant_violations
            == full.machine.stats.invariant_violations)
    assert shadow_error == full_error


def test_pointer_clear_behind_the_api_is_caught_by_the_membership_audit():
    """The join-wipes-pointer-partition bug clears a pointer partition
    without going through the Directory API, so no item is marked dirty;
    the join's membership change forces the full audit that finds it."""
    mutation = MUTATIONS["join-wipes-pointer-partition"]
    mcfg = ModelConfig(acting_nodes=2, n_items=1, membership=True)
    counterexample = check(mcfg, mutate=mutation.apply).counterexample
    assert counterexample is not None
    trace = counterexample.trace
    assert trace[-1] == ("join",)

    hook, observers = _shadowed(mutation.apply)
    machine = build_machine(mcfg, hook)
    for event in trace:
        apply_event(machine, event)
    (observer,) = observers
    lost = {v.item for v in counterexample.violations}
    assert not lost & observer._dirty  # never touched through the API
    audits = observer.full_audits
    violations = observer.check_now("after join")
    assert observer.full_audits == audits + 1
    assert {(v.code, v.item) for v in violations} == {
        (v.code, v.item) for v in counterexample.violations
    }
    assert observer.mismatches == []


# ------------------------------------------------ hit drain and observers

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernel extension not built",
)


@needs_compiled
def test_observers_see_every_reference_under_the_compiled_backend():
    """The compiled hit drain consumes cache hits without calling
    protocol.read/write; with the observer and oracle attached it must
    stand down, so checks and the value oracle's log match the python
    backend's."""

    def run(backend):
        cfg = ArchConfig(n_nodes=6, seed=5).with_ft(
            checkpoint_period_override=2_000, detection_latency=100
        )
        wl = UniformShared(n_procs=6, refs_per_proc=300, write_fraction=0.2,
                           window_items=8, seed=5)
        machine = Machine(
            cfg, wl, protocol="ecp", backend=backend,
            failure_plan=[FailurePlan(time=3_000, node=2, repair_delay=500)],
        )
        observer = machine.attach_verifier()
        oracle = machine.attach_oracle()
        result = machine.run()
        return result.stats.invariant_checks, observer.checks, oracle.log

    checks, observed, log = run("python")
    assert run("compiled") == (checks, observed, log)
    assert len([op for op in log if op[0] in "rw"]) > 6 * 300


def _water9(backend):
    cfg = ArchConfig(n_nodes=9, seed=7).with_ft(checkpoint_period_override=20_000)
    workload = make_workload("water", n_procs=9, scale=0.004, seed=7)
    return Machine(cfg, workload, protocol="ecp", backend=backend)


@needs_compiled
def test_an_instance_wrapper_on_protocol_read_sees_every_read():
    """The drain stands down whenever protocol.read/write is replaced on
    the instance, verifier or not: a bare counting wrapper sees as many
    reads under compiled as under python."""

    def reads(backend):
        machine = _water9(backend)
        inner, calls = machine.protocol.read, []

        def read(*args):
            calls.append(args[0])
            return inner(*args)

        machine.protocol.read = read
        machine.run()
        return len(calls)

    assert reads("compiled") == reads("python")


@needs_compiled
def test_a_trigger_injector_leaves_the_drain_on():
    """Subscribing to machine events wraps nothing, so a machine carrying
    a trigger injector drains exactly the hits a bare machine drains."""

    def drained(machine):
        inner, total = machine.kernel_drain, [0]

        def drain(*args):
            hits, t_local = inner(*args)
            total[0] += hits
            return hits, t_local

        machine.kernel_drain = drain
        machine.run()
        return total[0]

    probed = _water9("compiled")
    attach_trigger_injector(probed, [])
    assert drained(probed) == drained(_water9("compiled")) > 0
