"""Property test: group commit is linearizable under crashes.

The acknowledgment contract of
:class:`~repro.storage.groupcommit.GroupCommitLog`: when a writer's
``update_text`` returns, its record — and every record enqueued before
it — is durable; a crash may lose only an unacknowledged suffix, and
the durable log is always a *prefix of the enqueue order* (which
equals the in-memory apply order, because both happen under the
writer lock).

Each example races several writer threads against a group-committed
fsync database and injects a crash (possibly a torn write) at a
randomly drawn occurrence of a WAL crashpoint.  The whole interleaving
is derived from one seed, printed by hypothesis on failure.  Checks:

* the durable log equals a prefix of the observed enqueue order;
* every acknowledged update is inside that prefix (durability);
* recovery replays exactly that prefix — each node's recovered value
  is the last durable write to it (or its initial value), i.e. the
  recovered state *is* the serial execution of the acknowledged batch
  prefix — and the recovered database passes :meth:`verify`.
"""

import os
import random
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.storage import faults, groupcommit
from repro.storage.wal import replay_records
from repro.xmldb import TEXT

WRITERS = 3
OPS = 25


def _value_nids(doc) -> list[int]:
    return [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT]


def _run_case(base: str, seed: int, patch: pytest.MonkeyPatch) -> None:
    rng = random.Random(seed)
    path = os.path.join(base, "db")
    patch.setattr(groupcommit, "BATCH_MAX", rng.choice([2, 3, 8]))
    db = Database(
        path,
        typed=(),
        sync="fsync",
        checkpoint_every=0,
        concurrent=True,
        group_commit=True,
    )
    xml = "<root>" + "".join(
        f"<v>init{i}</v>" for i in range(WRITERS)
    ) + "</root>"
    doc = db.load("d", xml)
    nids = _value_nids(doc)

    # Observe the enqueue order (= apply order: enqueue happens under
    # the writer lock).  The durable log must be a prefix of this.
    order: list[tuple[int, str]] = []
    original_enqueue = db._group.enqueue

    def tracked_enqueue(record):
        seq = original_enqueue(record)
        order.append((record.nid, record.text))
        return seq

    db._group.enqueue = tracked_enqueue

    point = rng.choice(["wal.append", "wal.appended"])
    occurrence = rng.randrange(1, WRITERS * OPS)
    keep = rng.randrange(0, 48) if point == "wal.append" and rng.random() < 0.5 else None
    # Per-writer index of the last acknowledged update (-1 = none).
    acked = [-1] * WRITERS

    def writer(slot: int) -> None:
        for k in range(OPS):
            try:
                db.update_text(nids[slot], f"w{slot}-{k}")
            except BaseException:
                # Injected crash (directly, or via the poisoned log):
                # everything from here on is unacknowledged.
                return
            acked[slot] = k

    plan = faults.CrashPlan(point, occurrence=occurrence, keep_bytes=keep)
    threads = [
        threading.Thread(target=writer, args=(slot,), name=f"writer-{slot}")
        for slot in range(WRITERS)
    ]
    with faults.injected(faults.FaultInjector(crash=plan)):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"seed {seed}: hung threads {hung}"

    # Abandon the crashed instance (buffers are empty by construction:
    # every successful append flushed, the torn write flushed its
    # prefix) and read what actually survived on disk.
    db._wal._fh.close()
    durable = [
        (r.nid, r.text)
        for r in replay_records(os.path.join(path, "wal.log"))
    ]

    assert durable == order[: len(durable)], (
        f"seed {seed} ({point}@{occurrence}, keep={keep}): durable log "
        f"is not a prefix of the enqueue order\n"
        f"durable={durable}\nenqueued={order}"
    )
    durable_set = set(durable)
    for slot in range(WRITERS):
        if acked[slot] >= 0:
            record = (nids[slot], f"w{slot}-{acked[slot]}")
            assert record in durable_set, (
                f"seed {seed}: acknowledged update {record} lost "
                f"(acked={acked}, durable={durable})"
            )

    # Recover.  The replayed state must be the serial execution of the
    # durable prefix: last durable write per node, else the initial
    # value.
    expected = {nid: f"init{i}" for i, nid in enumerate(nids)}
    for nid, text in durable:
        expected[nid] = text
    db2 = Database(path, sync="flush")
    assert db2.recovered_records == len(durable), (
        f"seed {seed}: replayed {db2.recovered_records} of "
        f"{len(durable)} durable record(s)"
    )
    for nid, want in expected.items():
        rdoc, pre = db2.store.node(nid)
        got = rdoc.text_of(pre)
        assert got == want, (
            f"seed {seed}: node {nid} recovered {got!r}, expected {want!r}"
        )
    report = db2.verify()
    assert report.ok, f"seed {seed}: post-recovery verify: {report.summary()}"
    db2.close(checkpoint=False)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=10, deadline=None)
def test_recovered_state_is_a_serial_prefix_of_acknowledged(seed):
    with tempfile.TemporaryDirectory() as base, \
            pytest.MonkeyPatch.context() as patch:
        _run_case(base, seed, patch)
