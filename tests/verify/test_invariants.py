"""Unit tests for the invariant predicates and the runtime observer."""

import pytest

from tests.helpers import bare_machine, do_checkpoint
from repro.memory.states import ItemState
from repro.verify.invariants import (
    CheckContext,
    STRICT,
    check_machine,
    dump_state,
)
from repro.verify.observer import InvariantObserver, InvariantViolationError

pytestmark = pytest.mark.verify

S = ItemState
ITEM = 128


def addr(item):
    return item * ITEM


def codes(machine, ctx=STRICT):
    return {v.code for v in check_machine(machine, ctx)}


def test_clean_machine_has_no_violations():
    m = bare_machine(protocol="ecp")
    m.protocol.write(0, addr(0), 0)
    m.protocol.read(1, addr(0), 10_000)
    assert codes(m) == set()


def test_duplicate_owner_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    # corrupt: mint a second Exclusive copy behind the protocol's back
    p._install_item(1, 0, S.EXCLUSIVE, 0)
    assert "OWNER" in codes(m)


def test_duplicated_pair_member_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    do_checkpoint(m)
    holders = {
        n.node_id
        for n in m.nodes
        if n.am.state(0) is not S.INVALID
    }
    spare = next(n.node_id for n in m.nodes if n.node_id not in holders)
    # corrupt: a second Shared-CK2 copy appears on a third node
    p._install_item(spare, 0, S.SHARED_CK2, 0)
    assert "DUP" in codes(m, CheckContext(check_directory=False))


def test_incomplete_ck_pair_detected_and_relaxed():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    do_checkpoint(m)
    entry = p.directory.entry(0, 0)
    m.nodes[entry.partner].am.set_state(0, S.INVALID)  # lose the CK2 copy
    strict = codes(m, CheckContext(check_directory=False))
    assert "CK-PAIR" in strict
    relaxed = codes(
        m, CheckContext(allow_singleton_ck=True, check_directory=False)
    )
    assert "CK-PAIR" not in relaxed


def test_pre_commit_outside_establishment_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    p.mark_precommit_local(0, 0)
    assert "PRE-COMMIT" in codes(m, CheckContext(allow_incomplete_pairs=True))
    assert "PRE-COMMIT" not in codes(
        m, CheckContext(allow_pre_commit=True, allow_incomplete_pairs=True)
    )


def test_stale_sharing_list_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    p.read(1, addr(0), 10_000)
    # corrupt: node 1 silently loses its copy, list not pruned
    m.nodes[1].am.set_state(0, S.INVALID)
    assert "DIR-SHARERS" in codes(m)


def test_stale_pointer_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    p.directory.set_serving_node(0, 2)  # corrupt: pointer to a Shared-less node
    assert "DIR-POINTER" in codes(m)


def test_am_group_index_corruption_detected():
    m = bare_machine(protocol="ecp")
    p = m.protocol
    p.write(0, addr(0), 0)
    # corrupt the group index directly, bypassing set_state
    m.nodes[0].am._groups["owned"].discard(0)
    assert "AM-GROUP" in codes(m)


def test_dump_state_names_holders():
    m = bare_machine(protocol="ecp")
    m.protocol.write(0, addr(5), 0)
    dump = dump_state(m)
    assert "item 5" in dump and "EXCLUSIVE" in dump


# ------------------------------------------------------------- observer


def test_observer_checks_every_transition_and_counts():
    m = bare_machine(protocol="ecp")
    obs = m.attach_verifier()
    m.protocol.write(0, addr(0), 0)
    m.protocol.read(1, addr(0), 10_000)
    do_checkpoint(m)
    assert obs.checks == m.stats.invariant_checks
    assert obs.checks > 2  # reads/writes + per-node establishment steps
    assert m.stats.invariant_violations == 0
    assert obs.phase == "normal"


def test_observer_raises_with_transition_and_state():
    m = bare_machine(protocol="ecp")
    m.attach_verifier()
    m.protocol.write(0, addr(0), 0)
    m.protocol.on_shared_copy_dropped = lambda *a: None  # seed a bug
    m.protocol.read(1, addr(0), 10_000)
    m.nodes[1].am.set_state(0, S.INVALID)
    with pytest.raises(InvariantViolationError) as exc_info:
        m.protocol.read(2, addr(0), 20_000)
    err = exc_info.value
    assert "DIR-SHARERS" in str(err)
    assert err.transition.startswith("read")
    assert "item 0" in err.state


def test_observer_collect_mode_records_instead_of_raising():
    m = bare_machine(protocol="ecp")
    obs = InvariantObserver(m, raise_on_violation=False)
    obs.attach()
    m.protocol.write(0, addr(0), 0)
    m.nodes[0].am.set_state(0, S.SHARED_CK1)  # corrupt: singleton CK primary
    m.protocol.read(1, addr(0), 10_000)
    assert obs.violations
    assert m.stats.invariant_violations >= 1


def test_observer_tracks_establishment_phase():
    m = bare_machine(protocol="ecp")
    obs = m.attach_verifier()
    m.protocol.write(0, addr(0), 0)
    m.protocol.mark_precommit_local(0, 0)  # legal mid-create
    assert obs.phase == "create"
    res = m.protocol.injector.inject(
        0, 0, S.PRE_COMMIT2, 0,
        __import__("repro.coherence.injection", fromlist=["InjectionCause"]).InjectionCause.CREATE_REPLICATION,
        drop_local=False,
    )
    m.protocol.directory.entry(0, 0).partner = res.acceptor
    m.protocol.commit_node(0)
    for node in m.nodes:
        if node.node_id != 0:
            m.protocol.commit_node(node.node_id)
    assert obs.phase == "commit"  # until the coordinator announces completion
    m.notify("on_establishment_complete")
    assert obs.phase == "normal"
