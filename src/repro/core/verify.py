"""Database integrity verification (first-principles cross-checks).

Where :meth:`IndexManager.check_consistency` compares indices against a
fresh *rebuild* (same code path), this module re-derives every indexed
fact straight from document text — hash values via ``H`` over XDM
string values, typed states via a fresh FSM run, sorted-run structure via
its own invariant checker — and reports every discrepancy instead of
stopping at the first.  This is the tool an operator runs after a
crash recovery or a suspected bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..xmldb.document import ATTR, COMMENT, PI, TEXT
from .hashing import hash_string
from .manager import IndexManager

__all__ = ["VerificationReport", "verify_database"]


@dataclass
class VerificationReport:
    """Outcome of a verification pass."""

    nodes_checked: int = 0
    entries_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def _problem(self, message: str) -> None:
        self.problems.append(message)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [
            f"verification: {status} "
            f"({self.nodes_checked:,} nodes, "
            f"{self.entries_checked:,} index entries)"
        ]
        lines.extend(f"  - {p}" for p in self.problems[:50])
        if len(self.problems) > 50:
            lines.append(f"  ... and {len(self.problems) - 50} more")
        return "\n".join(lines)


def verify_database(manager: IndexManager) -> VerificationReport:
    """Re-derive all index contents from document text and compare."""
    report = VerificationReport()
    for doc in manager.store.documents.values():
        try:
            doc.check_invariants()
        except AssertionError as exc:
            report._problem(f"{doc.name}: structural invariant: {exc}")
            continue
        _verify_document(manager, doc, report)
    _verify_trees(manager, report)
    return report


def _verify_document(manager, doc, report) -> None:
    string_index = manager.string_index
    typed = list(manager.typed_indexes.items())
    substring = manager.substring_index
    for pre in range(len(doc)):
        kind = doc.kind[pre]
        nid = doc.nid[pre]
        report.nodes_checked += 1
        if kind in (COMMENT, PI):
            if string_index is not None and nid in string_index.fields:
                report._problem(
                    f"{doc.name}#{nid}: comment/PI must not be indexed"
                )
            continue
        value = doc.string_value(pre)
        if string_index is not None:
            stored = string_index.field_of(nid)
            expected = hash_string(value)
            report.entries_checked += 1
            if stored is None:
                report._problem(f"{doc.name}#{nid}: missing hash entry")
            elif stored != expected:
                report._problem(
                    f"{doc.name}#{nid}: hash {stored:#010x} != "
                    f"H(value) {expected:#010x}"
                )
        for type_name, index in typed:
            fragment = index.plugin.fragment_of_text(value)
            stored_fragment = index.field_of(nid)
            report.entries_checked += 1
            if stored_fragment.state != fragment.state:
                report._problem(
                    f"{doc.name}#{nid}: {type_name} state "
                    f"{stored_fragment.state} != fresh {fragment.state}"
                )
                continue
            expected_value = index.plugin.cast(fragment)
            if index.value_of(nid) != expected_value:
                report._problem(
                    f"{doc.name}#{nid}: {type_name} value "
                    f"{index.value_of(nid)!r} != {expected_value!r}"
                )
        if substring is not None and kind in (TEXT, ATTR):
            report.entries_checked += 1
            if substring.field_of(nid) != substring.field_of_text(
                doc.text_of(pre)
            ):
                report._problem(f"{doc.name}#{nid}: stale q-gram set")


def _verify_trees(manager, report) -> None:
    """Each run is well-formed and holds exactly the keys of the
    stored fields (which :func:`_verify_document` checked against the
    text): every entry matches its node's field, and every key of
    every field has its entry.  The run's entries are grouped by nid,
    so each field's keys are derived once."""
    for index in manager.indexes:
        kind = index.kind
        try:
            index.tree.check_invariants()
        except AssertionError as exc:
            report._problem(f"{kind} index run: {exc}")
        fields, keys_of = index.fields, index.keys_of
        keys, nids = index.tree.columns()
        by_nid = np.argsort(nids, kind="stable")
        keys, nids = keys[by_nid], nids[by_nid]
        bounds = np.flatnonzero(np.diff(nids, prepend=-1, append=-1))
        orphans, missing, held = [], [], set()
        for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            nid = int(nids[start])
            held.add(nid)
            stored = fields.get(nid)
            expected = () if stored is None else keys_of(stored)
            found = sum(key in expected for key in keys[start:end].tolist())
            if found < end - start:
                orphans.append(nid)
            if found < len(expected):
                missing.append(nid)
        missing += [
            nid
            for nid, stored in fields.items()
            if nid not in held and keys_of(stored)
        ]
        for extra in sorted(orphans)[:10]:
            report._problem(f"{kind} tree has orphan nid {extra}")
        for nid in sorted(missing)[:10]:
            report._problem(f"{kind} tree lacks an entry of nid {nid}")
