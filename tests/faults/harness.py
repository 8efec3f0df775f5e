"""Shared machinery for the crash-recovery fault-injection suite.

The suite's shape: generate a *concrete* random update sequence once
(every op names explicit nids, so it replays identically on any
database seeded with the same document), build an in-memory oracle
after every prefix of the sequence, then crash a real
:class:`~repro.database.Database` at injected fault points and check
that reopening yields a state identical to one of the admissible
oracle prefixes.

Determinism notes: node-id allocation is a plain counter, so a fresh
database loading the same document and applying the same ops allocates
the same nids as the oracle manager — which is exactly the property
WAL replay itself relies on.
"""

from __future__ import annotations

import random

from repro.core import IndexManager
from repro.query import query as run_query
from repro.xmldb import ATTR, ELEM, TEXT

__all__ = [
    "BASE_XML",
    "DOC_NAME",
    "TYPED",
    "QUERIES",
    "generate_ops",
    "apply_op",
    "make_oracles",
    "signature",
    "assert_matches_oracle",
]

DOC_NAME = "doc"
TYPED = ("double",)
BASE_XML = (
    "<people>"
    "<person><name>Arthur</name><age>42</age></person>"
    "<person><name>Trillian</name><age>30</age></person>"
    "<note>towel</note>"
    "</people>"
)
#: Queries compared between recovered database and oracle.
QUERIES = ["//person[age = 42]", "//extra", "//person"]


def _nids_of_kind(doc, kind):
    return [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == kind]


def generate_ops(seed: int, count: int):
    """A concrete op list, generated against a scratch manager so every
    op targets a node that is alive at its point in the sequence."""
    rng = random.Random(seed)
    scratch = IndexManager(typed=TYPED)
    scratch.load(DOC_NAME, BASE_XML)
    ops = []
    attr_serial = 0
    while len(ops) < count:
        doc = scratch.store.document(DOC_NAME)
        texts = _nids_of_kind(doc, TEXT)
        attrs = _nids_of_kind(doc, ATTR)
        root_nid = doc.nid[doc.root_element()]
        elems = [n for n in _nids_of_kind(doc, ELEM) if n != root_nid]
        roll = rng.random()
        if roll < 0.30 and texts:
            op = ("update_text",
                  (rng.choice(texts), str(rng.randint(0, 99))))
        elif roll < 0.55:
            parent = rng.choice(elems + [root_nid])
            op = ("insert_xml",
                  (parent, f"<extra><n>{rng.randint(0, 999)}</n></extra>"))
        elif roll < 0.65 and len(elems) > 4:
            op = ("delete_subtree", (rng.choice(elems),))
        elif roll < 0.75:
            attr_serial += 1
            op = ("insert_attribute",
                  (rng.choice(elems + [root_nid]), f"a{attr_serial}",
                   str(rng.randint(0, 999))))
        elif roll < 0.82 and attrs:
            op = ("delete_attribute", (rng.choice(attrs),))
        elif roll < 0.90 and elems:
            op = ("rename", (rng.choice(elems), f"tag{rng.randint(0, 9)}"))
        else:
            op = ("checkpoint", ())
        apply_op(scratch, op)
        ops.append(op)
    return ops


def apply_op(target, op) -> None:
    """Apply one op to a Database or an (oracle) IndexManager."""
    name, args = op
    if name == "checkpoint":
        # Durability-only: a no-op on the in-memory oracle.
        if hasattr(target, "checkpoint"):
            target.checkpoint()
        return
    getattr(target, name)(*args)


def make_oracles(ops):
    """Oracle managers after every prefix: ``oracles[k]`` holds the
    state after the first ``k`` ops."""
    oracles = []
    for k in range(len(ops) + 1):
        manager = IndexManager(typed=TYPED)
        manager.load(DOC_NAME, BASE_XML)
        for op in ops[:k]:
            apply_op(manager, op)
        oracles.append(manager)
    return oracles


def signature(manager) -> dict:
    """Everything that defines logical database state."""
    store = manager.store
    return {
        "docs": {
            name: doc.serialize() for name, doc in store.documents.items()
        },
        "next_nid": store._next_nid,
        "string": (
            sorted(manager.string_index.hash_of.items())
            if manager.string_index is not None
            else None
        ),
        "typed": {
            name: sorted(index.entries())
            for name, index in manager.typed_indexes.items()
        },
    }


def assert_matches_oracle(db, oracles, admissible, context: str) -> int:
    """Recovered state must equal the oracle after one of the
    ``admissible`` prefix lengths; returns the matched prefix."""
    recovered_sig = signature(db.manager)
    matched = None
    for k in admissible:
        if recovered_sig == signature(oracles[k]):
            matched = k
            break
    assert matched is not None, (
        f"{context}: recovered state matches no admissible oracle prefix "
        f"{sorted(admissible)}"
    )
    oracle = oracles[matched]
    for xpath in QUERIES:
        assert sorted(db.query(xpath)) == sorted(run_query(oracle, xpath)), (
            f"{context}: query {xpath!r} diverges from oracle prefix "
            f"{matched}"
        )
    report = db.verify()
    assert report.ok, f"{context}: verify() failed: {report.summary()}"
    return matched
