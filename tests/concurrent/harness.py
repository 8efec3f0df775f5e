"""Shared driver for the differential concurrency tests.

Spins up N reader threads and M writer threads against one live
:class:`~repro.database.Database`.  Every reader query runs inside a
pinned :meth:`~repro.database.Database.read_view` and is
cross-checked against the naive full-scan oracle
(:func:`repro.query.evaluate_naive`) evaluated on the *same pinned
snapshot* — the document's text reads resolve through the MVCC
overlay, so both sides see epoch-consistent state.  Any
divergence, or a post-run :meth:`verify` failure, is a hard failure;
error messages carry the thread slot and seed so a failing
interleaving can be replayed.
"""

from __future__ import annotations

import random
import threading
import time

from repro.database import Database
from repro.query import evaluate_naive, parse_query
from repro.xmldb import ELEM, TEXT

AGES = 25
NAMES = 12

#: Query templates the readers draw from (equality, range and a
#: three-character ``contains``, routed to the string, typed and —
#: when configured — substring indices; otherwise the scan answers).
QUERY_MAKERS = [
    lambda rng: f"//p[.//age = {rng.randrange(AGES)}]",
    lambda rng: f'//p[.//name = "n{rng.randrange(NAMES)}"]',
    lambda rng: f"//p[.//age >= {rng.randrange(AGES)}]",
    lambda rng: f'//p[contains(name/text(), "n1{rng.randrange(3)}")]',
]


def fixture_xml(persons: int = 30) -> str:
    body = "".join(
        f"<p><name>n{i % NAMES}</name><age>{i % AGES}</age></p>"
        for i in range(persons)
    )
    return f"<root>{body}</root>"


def classified_text_nids(doc) -> tuple[list[int], list[int]]:
    """(age-text nids, name-text nids) of the fixture document."""
    ages, names = [], []
    for pre in range(len(doc)):
        if doc.kind[pre] != TEXT:
            continue
        parent = doc.parent(pre)
        if doc.kind[parent] != ELEM:
            continue
        label = doc.name_of(parent)
        if label == "age":
            ages.append(doc.nid[pre])
        elif label == "name":
            names.append(doc.nid[pre])
    return ages, names


def oracle(doc, text: str) -> list[int]:
    """Naive full-scan answer (nids) at the caller's snapshot."""
    return sorted(doc.nid[p] for p in evaluate_naive(doc, parse_query(text).path))


def run_stress(
    path: str,
    seed: int,
    readers: int = 3,
    writers: int = 2,
    ops: int = 150,
    duration: float | None = None,
    structural: bool = True,
    **db_kwargs,
) -> dict:
    """Run the differential workload; returns ``{"checks", "updates"}``.

    ``ops`` bounds each writer when ``duration`` is None; otherwise the
    run is wall-clock bounded (writers loop until the deadline).  Extra
    ``db_kwargs`` go to :class:`Database` (e.g. ``sync``).
    """
    db_kwargs.setdefault("typed", ("double",))
    db_kwargs.setdefault("sync", "flush")
    db_kwargs.setdefault("checkpoint_every", 0)
    db = Database(path, concurrent=True, group_commit=True, **db_kwargs)
    doc = db.load("people", fixture_xml())
    age_nids, name_nids = classified_text_nids(doc)
    root_nid = doc.nid[doc.root_element()]

    errors: list[str] = []
    stop = threading.Event()
    writers_done = threading.Event()
    deadline = None if duration is None else time.monotonic() + duration
    counts = {"checks": 0, "updates": 0}
    count_lock = threading.Lock()

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def writer(slot: int) -> None:
        rng = random.Random(seed * 1_000 + 100 + slot)
        done = 0
        try:
            while not stop.is_set() and not expired():
                if duration is None and done >= ops:
                    break
                if structural and slot == 0 and rng.random() < 0.03:
                    # Occasional structural update: exercises the
                    # stop-the-world exclusive path among readers.
                    i = rng.randrange(10_000)
                    db.insert_xml(
                        root_nid,
                        f"<p><name>n{rng.randrange(NAMES)}</name>"
                        f"<age>{rng.randrange(AGES)}</age></p>",
                    )
                    db.insert_attribute(root_nid, f"a{slot}x{i}", "1")
                elif rng.random() < 0.7:
                    db.update_text(
                        rng.choice(age_nids), str(rng.randrange(AGES))
                    )
                else:
                    db.update_text(
                        rng.choice(name_nids), f"n{rng.randrange(NAMES)}"
                    )
                done += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"writer {slot} (seed {seed}): {exc!r}")
            stop.set()
        finally:
            with count_lock:
                counts["updates"] += done

    def reader(slot: int) -> None:
        rng = random.Random(seed * 1_000 + slot)
        done = 0
        try:
            while not errors and (not writers_done.is_set() or done == 0):
                if expired() and done > 0:
                    break
                text = rng.choice(QUERY_MAKERS)(rng)
                with db.read_view():
                    answer = sorted(db.query(text))
                    expected = oracle(db.store.document("people"), text)
                if answer != expected:
                    errors.append(
                        f"reader {slot} (seed {seed}): divergence on "
                        f"{text!r}: answer={answer} oracle={expected}"
                    )
                    stop.set()
                    return
                done += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"reader {slot} (seed {seed}): {exc!r}")
            stop.set()
        finally:
            with count_lock:
                counts["checks"] += done

    writer_threads = [
        threading.Thread(target=writer, args=(slot,), name=f"writer-{slot}")
        for slot in range(writers)
    ]
    reader_threads = [
        threading.Thread(target=reader, args=(slot,), name=f"reader-{slot}")
        for slot in range(readers)
    ]
    for thread in reader_threads + writer_threads:
        thread.start()
    for thread in writer_threads:
        thread.join(timeout=120)
    writers_done.set()
    for thread in reader_threads:
        thread.join(timeout=120)
    hung = [
        t.name for t in writer_threads + reader_threads if t.is_alive()
    ]
    assert not hung, f"hung threads {hung} (seed {seed}); errors: {errors}"
    assert not errors, "\n".join(errors)

    report = db.verify()
    assert report.ok, f"post-run verify failed (seed {seed}): " \
                      f"{report.summary()}"
    db.close(checkpoint=False)
    assert counts["checks"] > 0 and counts["updates"] > 0
    return counts
