"""Parallel chunked index creation (the Figure 7 pass, split by C).

The paper's creation algorithm computes every node's field in one
depth-first pass, folding children into parents with the associative
combination function ``C`` (hash index) or the state combination table
(typed FSM index).  Associativity is exactly what makes the pass
*splittable*: partition the document's pre range into runs of complete
sibling subtrees ("chunks"), compute each chunk independently with the
unchanged serial kernel (:func:`repro.core.builder.compute_fields`),
and recover the fields of the few ancestors that span chunks (the
"spine") by folding the per-chunk contributions in document order —
the same algebra the updater already uses for ancestor recomputation.
The result is bit-for-bit identical to the serial pass; see
docs/parallel-build.md for the argument.

Two worker-pool backends are provided:

* ``"thread"`` — workers share the document and stage into private
  collectors; cheap, but Python-level work serialises on the GIL (the
  vectorised hash releases it, FSM runs do not).
* ``"process"`` — workers receive only the chunk's column slices
  (kind/size/nid plus leaf texts) and return staged ``(nid, field)``
  runs; fields (32-bit hashes, FSM fragments) pickle compactly.
  Process pools are persistent per worker count so repeated builds
  amortise fork cost.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..errors import IndexError_
from ..xmldb.document import ATTR, ELEM, TEXT, Document
from .builder import compute_fields
from .value_index import ValueIndex

__all__ = [
    "Chunk",
    "SplitPlan",
    "split_document",
    "compute_fields_parallel",
    "build_document_parallel",
    "resolve_workers",
    "shutdown_pools",
]

#: Chunks scheduled per worker; >1 smooths load imbalance, at the cost
#: of per-chunk dispatch overhead on the process backend.
CHUNKS_PER_WORKER = 2

#: Documents below this many rows are built serially under "auto".
AUTO_MIN_ROWS = 4096


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------

def resolve_workers(parallel: int | str | None) -> int:
    """Resolve the public ``parallel`` knob to a worker count.

    ``None`` means serial (returns 0); ``"auto"`` uses the CPUs
    available to this process; an integer is used as given (>= 1).
    """
    if parallel is None:
        return 0
    if parallel == "auto":
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    workers = int(parallel)
    if workers < 1:
        raise IndexError_(f"parallel worker count must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Splitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Chunk:
    """A contiguous pre range of complete sibling subtrees.

    All top-level subtrees in the range share the same parent, a spine
    node at ``parent_pre``.
    """

    start: int
    end: int
    parent_pre: int

    @property
    def rows(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class SplitPlan:
    """A document partition: spine ancestors + independent chunks.

    ``spine`` is a root-first path of container pres (the document node
    downwards) whose subtrees span more than one chunk; every other row
    of the document belongs to exactly one chunk.
    """

    spine: tuple[int, ...]
    chunks: tuple[Chunk, ...]


def split_document(doc: Document, target: int) -> SplitPlan:
    """Partition ``doc`` into roughly ``target`` balanced chunks.

    Walks a spine from the document node, descending into the largest
    element child while its subtree is too big to be one chunk; every
    subtree hanging off the spine becomes a chunk item, and adjacent
    same-parent items are merged up to the row budget.
    """
    n = len(doc)
    sizes = doc.size
    budget = max(1, n // max(1, target))
    spine: list[int] = []
    items: list[Chunk] = []
    node = 0
    while True:
        spine.append(node)
        kids = list(doc.children_and_attributes(node))
        big = max(kids, key=lambda c: sizes[c], default=None)
        if (
            big is not None
            and doc.kind[big] == ELEM
            and sizes[big] + 1 > budget
        ):
            for child in kids:
                if child != big:
                    items.append(Chunk(child, child + sizes[child], node))
            node = big
            continue
        for child in kids:
            items.append(Chunk(child, child + sizes[child], node))
        break
    items.sort(key=lambda c: c.start)
    chunks: list[Chunk] = []
    for item in items:
        last = chunks[-1] if chunks else None
        if (
            last is not None
            and last.parent_pre == item.parent_pre
            and last.end + 1 == item.start
            and last.rows < budget
        ):
            chunks[-1] = Chunk(last.start, item.end, last.parent_pre)
        else:
            chunks.append(item)
    return SplitPlan(tuple(spine), tuple(chunks))


# ----------------------------------------------------------------------
# Chunk workers
# ----------------------------------------------------------------------

class _Collector:
    """Stands in for an index inside a chunk worker.

    Delegates the algebra (H/C or FSM/SCT) to a real index object but
    records staged entries privately, so workers never touch shared
    index state and the main thread can replay runs in serial order.
    Fields the index would not store (rejected FSM states — most of a
    typed index's entries) are dropped here: they are dead weight in
    worker results.
    """

    __slots__ = ("identity", "combine", "field_of_texts", "stores",
                 "entries")

    def __init__(self, algebra: ValueIndex):
        self.identity = algebra.identity
        self.combine = algebra.combine
        self.field_of_texts = algebra.field_of_texts
        self.stores = algebra.stores
        self.entries: list[tuple[int, object]] = []

    def stage_entry(self, nid: int, field: object) -> None:
        if self.stores(field):
            self.entries.append((nid, field))


class _ChunkView:
    """Document stand-in over one chunk's column slices (0-based pres).

    Carries exactly what :func:`compute_fields` reads — kind, size and
    nid columns plus the text of value leaves.  Subtree sizes are
    self-contained because chunks cover complete subtrees, and nids are
    store-global, so staged entries need no translation.
    """

    __slots__ = ("kind", "size", "nid", "_texts")

    def __init__(self, kind, size, nid, texts):
        self.kind = kind
        self.size = size
        self.nid = nid
        self._texts = texts

    def text_of(self, pre: int) -> str:
        return self._texts[pre]


def _chunk_payload(doc: Document, chunk: Chunk):
    """Column slices of one chunk, ready to ship to a worker process."""
    start, end = chunk.start, chunk.end
    kinds = doc.kind[start : end + 1]
    texts: list[str | None] = [None] * len(kinds)
    for i, kind in enumerate(kinds):
        if kind == TEXT or kind == ATTR:
            texts[i] = doc.text_of(start + i)
    return (
        kinds,
        doc.size[start : end + 1],
        doc.nid[start : end + 1],
        texts,
    )


#: Per-process cache of rebuilt algebras (plugin construction is not
#: free; every chunk of every build in this worker shares them).
_ALGEBRAS: dict[tuple, ValueIndex] = {}


def _algebra_for(spec: tuple) -> ValueIndex:
    """An empty index rebuilt from :meth:`ValueIndex.spec`."""
    algebra = _ALGEBRAS.get(spec)
    if algebra is None:
        cls, args = spec
        algebra = _ALGEBRAS[spec] = cls(*args)
    return algebra


def _process_chunk(specs: tuple, payload: tuple):
    """Worker-process entry: compute one chunk from column slices."""
    kinds, sizes, nids, texts = payload
    view = _ChunkView(kinds, sizes, nids, texts)
    collectors = [_Collector(_algebra_for(spec)) for spec in specs]
    contributions = compute_fields(view, 0, len(kinds) - 1, collectors, bulk=True)
    return [c.entries for c in collectors], contributions


def _thread_chunk(doc: Document, indexes: Sequence[ValueIndex], chunk: Chunk):
    """Worker-thread entry: compute one chunk over the shared document."""
    collectors = [_Collector(index) for index in indexes]
    contributions = compute_fields(
        doc, chunk.start, chunk.end, collectors, bulk=True
    )
    return [c.entries for c in collectors], contributions


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------

_PROCESS_POOLS: dict[int, ProcessPoolExecutor] = {}


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """Persistent process pool per worker count (fork cost amortised)."""
    pool = _PROCESS_POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _PROCESS_POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down all persistent worker pools (idempotent)."""
    for pool in _PROCESS_POOLS.values():
        pool.shutdown()
    _PROCESS_POOLS.clear()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# The parallel pass
# ----------------------------------------------------------------------

def compute_fields_parallel(
    doc: Document,
    indexes: Sequence[ValueIndex],
    workers: int,
    backend: str = "process",
) -> None:
    """Chunked, pooled equivalent of the whole-document Figure 7 pass.

    Splits the document at sibling boundaries, computes chunks on the
    worker pool, then replays the staged runs and the spine fields into
    the real indices in exactly the serial pass's emission order.
    """
    if backend not in ("thread", "process"):
        raise IndexError_(f"unknown parallel backend {backend!r}")
    plan = split_document(doc, max(workers * CHUNKS_PER_WORKER, 1))
    chunks = plan.chunks
    if backend == "process":
        specs = tuple(index.spec() for index in indexes)
        payloads = [_chunk_payload(doc, chunk) for chunk in chunks]
        if workers <= 1 or len(chunks) <= 1:
            results = [_process_chunk(specs, payload) for payload in payloads]
        else:
            pool = _process_pool(workers)
            results = list(
                pool.map(_process_chunk, [specs] * len(payloads), payloads)
            )
    else:
        if workers <= 1 or len(chunks) <= 1:
            results = [_thread_chunk(doc, indexes, chunk) for chunk in chunks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(lambda c: _thread_chunk(doc, indexes, c), chunks)
                )
    _replay(doc, plan, results, indexes)


def _replay(
    doc: Document,
    plan: SplitPlan,
    results: list,
    indexes: Sequence[ValueIndex],
) -> None:
    """Fold spine fields and stage all entries in serial close order."""
    k = len(indexes)
    # Spine fields, deepest first: each spine node's field is the fold
    # (in document order) of its chunk contributions and, where
    # present, its spine child's field — pure C/SCT algebra, no text.
    spine_fields: dict[int, list] = {}
    spine = plan.spine
    for depth in range(len(spine) - 1, -1, -1):
        node = spine[depth]
        units: list[tuple[int, Sequence[object]]] = [
            (chunk.start, contributions)
            for chunk, (_entries, contributions) in zip(plan.chunks, results)
            if chunk.parent_pre == node
        ]
        if depth + 1 < len(spine):
            child = spine[depth + 1]
            units.append((child, spine_fields[child]))
        units.sort(key=lambda unit: unit[0])
        fields = [index.identity for index in indexes]
        for _pos, contributions in units:
            for i in range(k):
                fields[i] = indexes[i].combine(fields[i], contributions[i])
        spine_fields[node] = fields
    # Serial emission order: a node's entry is emitted when its subtree
    # closes.  Chunks are self-contained blocks keyed by their end pre;
    # a spine node closes after every row of its subtree, deeper spine
    # nodes before shallower ones at equal end.
    events: list[tuple[int, int, int, tuple]] = [
        (chunk.end, 0, chunk.start, ("chunk", idx))
        for idx, chunk in enumerate(plan.chunks)
    ]
    events.extend(
        (node + doc.size[node], 1, -doc.level[node], ("spine", node))
        for node in spine
    )
    events.sort()
    for _end, _tie, _tie2, (what, ref) in events:
        if what == "chunk":
            entries_per_index, _contributions = results[ref]
            for index, entries in zip(indexes, entries_per_index):
                index.stage_entries(entries)
        else:
            fields = spine_fields[ref]
            nid = doc.nid[ref]
            for i in range(k):
                indexes[i].stage_entry(nid, fields[i])


def build_document_parallel(
    doc: Document,
    indexes: Sequence[ValueIndex],
    workers: int | str | None = "auto",
    backend: str = "process",
) -> None:
    """Create all ``indexes`` over ``doc`` with a pooled chunked pass.

    Drop-in parallel equivalent of
    :func:`repro.core.builder.build_document`.
    """
    resolved = resolve_workers(workers)
    for index in indexes:
        index.begin_bulk()
    compute_fields_parallel(doc, indexes, resolved, backend=backend)
    for index in indexes:
        index.finish_bulk()
