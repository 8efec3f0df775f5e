"""Differential property suite for elastic clusters.

Hypothesis drives random interleavings of text updates, scatter
queries, online document migrations, and rebalances over a 3-shard
thread-transport cluster.  After every query op — and over a fixed
probe set at the end — the cluster's ``(document, pre)`` rows must be
bit-identical to the naive full-scan oracle
(:func:`repro.query.evaluate_naive`) run over a mirror corpus that saw
exactly the same updates and *none* of the placement churn: placement
is supposed to be invisible to results.

The second property pins a :meth:`read_view` and migrates a document
*while the view is open*: the pinned queries must keep answering from
the pre-flip snapshot (the source copy is retained until the last
view closes), while un-pinned queries follow the moved document.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.query import evaluate_naive, parse_query
from repro.shard import ShardCluster
from repro.shard.engine import NID_RANGE_BITS

from ..concurrent.harness import AGES, NAMES, classified_text_nids, \
    fixture_xml

SHARDS = 3
#: (name, persons, home shard) — one doc per shard so every engine
#: shreds its document first and nid bases stay predictable.
DOCS = [("d0", 18, 0), ("d1", 24, 1), ("d2", 30, 2)]

PROBES = (
    "//p",
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 12]",
)


def _query_text(kind: int, value: int) -> str:
    if kind == 0:
        return f"//p[.//age = {value % AGES}]"
    if kind == 1:
        return f'//p[.//name = "n{value % NAMES}"]'
    if kind == 2:
        return f"//p[.//age >= {value % AGES}]"
    return "//p"


_update = st.tuples(st.just("update"), st.integers(0, len(DOCS) - 1),
                    st.booleans(), st.integers(0, 99))
_query = st.tuples(st.just("query"), st.integers(0, 3),
                   st.integers(0, 99))
_migrate = st.tuples(st.just("migrate"), st.integers(0, len(DOCS) - 1),
                     st.integers(0, SHARDS - 1))
_rebalance = st.tuples(st.just("rebalance"),
                       st.sampled_from(["bytes", "nodes"]))

OPS = st.lists(st.one_of(_update, _query, _migrate, _rebalance),
               min_size=4, max_size=20)


class _Rig:
    """Cluster plus its single-engine oracle mirror."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="elastic-prop-")
        self.cluster = ShardCluster(
            self.root + "/cluster", shards=SHARDS, transport="thread",
            checkpoint_every=0,
        ).start()
        self.oracle = Database(self.root + "/oracle")
        self.order = [name for name, _persons, _shard in DOCS]
        #: Nids differ between the two sides: the oracle shreds all
        #: three docs into one engine (sequential numbering) while
        #: each shard shreds its one doc first, minting from the
        #: shard's own nid base — stable even after the doc migrates.
        #: Probe a throwaway engine per doc for the shard-local nids.
        self.oracle_slots = {}
        self.cluster_slots = {}
        self.base = {}
        for name, persons, shard in DOCS:
            xml = fixture_xml(persons)
            self.cluster.load(name, xml, shard=shard)
            self.oracle_slots[name] = classified_text_nids(
                self.oracle.load(name, xml))
            with Database(self.root + f"/probe-{name}") as probe:
                self.cluster_slots[name] = classified_text_nids(
                    probe.load(name, xml))
            self.base[name] = shard << NID_RANGE_BITS

    def close(self):
        try:
            self.cluster.stop()
            self.oracle.close(checkpoint=False)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    # -- the two sides of every differential step -------------------

    def update(self, doc_idx: int, is_age: bool, value: int) -> None:
        name = self.order[doc_idx]
        pool = 0 if is_age else 1
        slot = value % len(self.cluster_slots[name][pool])
        text = str(value % (AGES * 2)) if is_age else f"n{value % NAMES}"
        self.cluster.update_text(
            name,
            self.cluster_slots[name][pool][slot] + self.base[name],
            text,
        )
        self.oracle.update_text(self.oracle_slots[name][pool][slot], text)

    def expected(self, text: str) -> list:
        path = parse_query(text).path
        rows = []
        for name in self.order:
            doc = self.oracle.store.document(name)
            rows.extend((name, int(pre))
                        for pre in sorted(evaluate_naive(doc, path)))
        return rows

    def check(self, text: str, context: str) -> None:
        got = self.cluster.query_pres(text)
        want = self.expected(text)
        assert got == want, (
            f"{context}: {text!r} diverged from oracle\n"
            f"  placement={dict(self.cluster.manifest.placement)}\n"
            f"  got ={got}\n  want={want}"
        )
        assert len(set(got)) == len(got), (
            f"{context}: {text!r} produced duplicate rows"
        )


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_interleaved_ops_match_oracle(ops):
    rig = _Rig()
    try:
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "update":
                rig.update(op[1], op[2], op[3])
            elif kind == "query":
                rig.check(_query_text(op[1], op[2]), f"step {step}")
            elif kind == "migrate":
                name = rig.order[op[1]]
                rig.cluster.migrate_document(name, op[2])
                assert rig.cluster.manifest.placement[name] == op[2]
            elif kind == "rebalance":
                rig.cluster.rebalance(weight=op[1])
        for probe in PROBES:
            rig.check(probe, "final")
        # Placement stayed a permutation: every doc exactly once.
        assert sorted(rig.cluster.manifest.placement) == sorted(rig.order)
    finally:
        rig.close()


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(prelude=st.lists(_update, min_size=0, max_size=6),
       moved=st.integers(0, len(DOCS) - 1),
       dst=st.integers(0, SHARDS - 1),
       after=_update)
def test_view_pinned_across_migration(prelude, moved, dst, after):
    """A pinned view answers from its snapshot even when a document is
    migrated — and updated — under it; un-pinned queries follow."""
    rig = _Rig()
    try:
        for op in prelude:
            rig.update(op[1], op[2], op[3])
        frozen = {probe: rig.expected(probe) for probe in PROBES}
        name = rig.order[moved]
        with rig.cluster.read_view() as view:
            report = rig.cluster.migrate_document(name, dst)
            assert report["moved"] == (rig.base[name]
                                       != dst << NID_RANGE_BITS)
            # Post-flip update lands on the new owner (cluster only:
            # the oracle mirror is deliberately left at the snapshot).
            rig.cluster.update_text(
                name, rig.cluster_slots[name][0][0] + rig.base[name],
                "777")
            for probe in PROBES:
                got = rig.cluster.query_pres(probe, view=view)
                assert got == frozen[probe], (
                    f"pinned view drifted on {probe!r} after migrating "
                    f"{name!r}→{dst}: got={got} want={frozen[probe]}"
                )
        # View closed: the un-pinned cluster now shows the update.
        rig.oracle.update_text(rig.oracle_slots[name][0][0], "777")
        for probe in PROBES + ("//p[.//age = 777]",):
            rig.check(probe, "after view close")
    finally:
        rig.close()
