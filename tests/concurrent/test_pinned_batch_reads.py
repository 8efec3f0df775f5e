"""Pinned readers verify candidates with one batch text read.

Every text read is a batch (:meth:`Document.read_texts`): the heap
slots are read in one pass, then the slots overwritten after the
reader's pin are put back to their pinned values.  Here a reader pinned
by ``read_view`` or by an ``as_of`` epoch queries after a text update
has overwritten one slot of each query's candidates, and must still get
the answer of its pin:

* ``settled`` — the update committed before the query ran;
* ``racing`` — the update runs *during* the query's heap pass: the heap
  hands out the slot only after a writer thread has recorded its
  before-value and overwritten it, the interleaving that only the
  heap-first, overlay-second order answers right.

Each case runs on one document and on several (the candidates then sit
in the middle document's segment).  The expected answers are taken
before the update, so no broken read can produce them on both sides.
Two injected bugs — skipping the overlay re-check, and checking the
overlay before reading the heap — must each make a case diverge.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import IndexManager
from repro.query import query
from repro.xmldb import ELEM, TEXT, Document
from repro.xmldb.mvcc import read_epoch

#: Query -> the field of the target ``p`` whose slot it reads.  The
#: ``@id`` buckets are small (each candidate checked on its own,
#: through the same batch read), the ``@kind`` and ``name`` ones large
#: (one batch heap read per document).
QUERIES = {
    '//p[@kind = "x"]': "kind",  # string eq on an attribute leaf
    '//p[@id = "k1" or @id = "k2"]': "id",  # attribute disjunction (fat)
    '//p[name = "alpha"]': "name",  # eq on a single-text container
    '//p[contains(note/text(), "n1")]': "note",  # contains, scanned (< q)
    '//p[contains(name/text(), "alph")]': "name",  # contains, q-grams
}


def _xml() -> str:
    return "<root>" + "".join(
        f'<p id="k{i}" kind="x"><name>{"alpha" if i < 6 else "beta"}'
        f"</name><note>n{i}</note></p>"
        for i in range(10)
    ) + "</root>"


def _manager(documents: int):
    manager = IndexManager(typed=("double",), substring=True)
    manager.concurrency.set_retention(16)
    for i in range(documents):
        manager.load(f"d{i}", _xml())
    target = manager.store.document(f"d{documents // 2}")
    return manager, target


def _overwrites(doc) -> dict[str, tuple[int, str]]:
    """Per field, the update that takes the second ``p`` out of the
    queries reading that field."""
    p = [pre for pre in range(len(doc))
         if doc.kind[pre] == ELEM and doc.name_of(pre) == "p"][1]
    slots = {doc.name_of(attr): attr for attr in doc.attributes(p)}
    for pre in doc.subtree(p):
        if doc.kind[pre] == TEXT:
            slots[doc.name_of(doc.parent(pre))] = pre
    return {field: (doc.nid[pre], "zzzz") for field, pre in slots.items()}


class _RacingHeap(list):
    """A text heap that, on the first read of ``slot``, lets a writer
    thread commit ``write`` before handing the slot out."""

    def __init__(self, texts, slot: int, write):
        super().__init__(texts)
        self.slot = slot
        self.write = write

    def __getitem__(self, index):
        if self.write is not None and index == self.slot:
            write, self.write = self.write, None
            writer = threading.Thread(target=write)
            writer.start()
            writer.join(timeout=30)
            assert not writer.is_alive(), "the writer waited for the reader"
        return super().__getitem__(index)


def _pinned(manager, reader: str, epoch: int):
    if reader == "read_view":
        return manager.read_view()
    return manager.concurrency.read_view_as_of(epoch)


def _divergences(documents: int, reader: str, race: str) -> list[str]:
    """The queries a pinned reader answers differently from its pin."""
    found = []
    for text, field in QUERIES.items():
        manager, doc = _manager(documents)
        before = query(manager, text)
        assert len(before) >= documents, text  # the target is a hit
        update = _overwrites(doc)[field]
        epoch = manager.epoch

        def write():
            manager.update_texts([update])

        if race == "settled":
            if reader == "read_view":
                with manager.read_view():
                    writer = threading.Thread(target=write)
                    writer.start()
                    writer.join(timeout=30)
                    got = query(manager, text)
            else:
                write()
                with _pinned(manager, reader, epoch):
                    got = query(manager, text)
        else:
            with _pinned(manager, reader, epoch):
                _, pre = manager.store.node(update[0])
                doc.texts = _RacingHeap(doc.texts, doc.text_id[pre], write)
                got = query(manager, text)
                assert doc.texts.write is None, "the slot was never read"
        if got != before:
            found.append(text)
        assert query(manager, text) != before, text  # the update landed
    return found


@pytest.mark.parametrize("race", ["settled", "racing"])
@pytest.mark.parametrize("reader", ["read_view", "as_of"])
@pytest.mark.parametrize("documents", [1, 3])
def test_pinned_reader_gets_its_pinned_answer(documents, reader, race):
    assert _divergences(documents, reader, race) == []


def _skip_the_recheck(self, slots):
    texts = self.texts
    return [texts[slot] for slot in slots]


def _overlay_first(self, slots):
    epoch = read_epoch()
    overlay = self.text_overlay
    changed = set()
    if overlay is not None and epoch is not None:
        changed = {s for s in slots if overlay.changed_since(s, epoch)}
    texts = self.texts
    return [
        overlay.resolve(slot, texts[slot], epoch) if slot in changed
        else texts[slot]
        for slot in slots
    ]


@pytest.mark.parametrize("bug, races", [
    (_skip_the_recheck, ("settled", "racing")),
    (_overlay_first, ("racing",)),
])
def test_injected_read_bugs_are_caught(monkeypatch, bug, races):
    monkeypatch.setattr(Document, "read_texts", bug)
    for race in races:
        for documents in (1, 3):
            for reader in ("read_view", "as_of"):
                assert _divergences(documents, reader, race) == list(
                    QUERIES
                ), (race, documents, reader)
