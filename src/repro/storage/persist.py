"""Persistence: save/load index managers (store and indices) to disk.

Layout of a database directory::

    MANIFEST.json        store metadata: documents, nid counter, index
                         config, checkpoint epoch
    <stem>.doc           one file per document (columns + heaps)
    <stem>.sidx          string-index hash column for the document
    <stem>.<type>.tidx   typed-index fragments for the document

Each index with a persisted ``column`` (string, typed) stores its
per-node fields (the expensive part: hashing/FSM over all text), packed
by the index's own ``pack_fields``; at open the fields are staged back
through the index protocol (``begin_bulk``/``stage_entries``/
``finish_bulk``), which rebuilds the sorted runs by one column merge.
An index without a column (substring) is re-derived by the ordinary
creation pass.  Documents round-trip exactly.

Snapshots commit atomically (see ``docs/durability.md``): every data
file is written to a temp name, fsynced and renamed under an
epoch-suffixed stem (``<name>@<epoch>``), and the manifest — which
names exactly the files belonging to the snapshot and carries the
monotonically increasing checkpoint epoch — is replaced *last*.  A
crash at any intermediate point leaves the previous manifest pointing
at the previous snapshot's untouched files.

A stem's epoch is the checkpoint that last *wrote* that document, not
necessarily the manifest's own epoch: :func:`save_manager` takes a
``reuse`` map of documents unchanged since the committed snapshot and
keeps their stems instead of serialising them again, so a checkpoint
costs O(changed documents).  Garbage collection works by manifest
reference — after a commit, every data file whose stem the new
manifest does not name is deleted, whatever its epoch.  Version-1
directories (no epoch in the manifest, unsuffixed stems) still load.
"""

from __future__ import annotations

import io
import json
import os

from ..core.builder import compute_fields
from ..core.manager import IndexManager
from ..core.value_index import ValueIndex
from ..errors import ReproError
from ..xmldb.document import Document
from ..xmldb.store import Store
from . import faults
from .format import (
    FormatError,
    pack_array,
    read_header,
    read_sections,
    unpack_array,
    write_header,
    write_section,
)

__all__ = [
    "load_store",
    "save_manager",
    "load_manager",
    "read_manifest",
    "manifest_epoch",
    "index_config",
    "document_bytes",
    "document_from_bytes",
    "index_bytes",
]

_MANIFEST = "MANIFEST.json"

#: Manifest schema version written by this code (1 had no epoch and
#: overwrote files in place; readers accept both).
_MANIFEST_VERSION = 2


def _doc_filename(name: str) -> str:
    """A filesystem-safe file stem for a document name."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _assign_stems(names, epoch: int) -> dict[str, str]:
    """Unique epoch-suffixed stems for the documents of one snapshot.

    Sanitising can collide (``a/b`` and ``a_b`` both map to ``a_b``);
    colliding stems get a ``~N`` suffix, recorded in the manifest so
    loaders never re-derive stems from names.  ``~`` and ``@`` cannot
    appear in a sanitised stem, so the suffixes are unambiguous.
    """
    stems: dict[str, str] = {}
    used: set[str] = set()
    for name in names:
        base = _doc_filename(name)
        candidate = base
        serial = 2
        while candidate in used:
            candidate = f"{base}~{serial}"
            serial += 1
        used.add(candidate)
        stems[name] = f"{candidate}@{epoch}"
    return stems


# ---------------------------------------------------------------------------
# Atomic commit machinery
# ---------------------------------------------------------------------------


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(final_path: str, data: bytes, point: str) -> None:
    """Write ``data`` to a temp file, fsync, rename over ``final_path``."""
    tmp = final_path + ".tmp"
    with open(tmp, "wb") as fh:
        faults.fault_write(fh, data, f"{point}.write")
        fh.flush()
        os.fsync(fh.fileno())
    faults.crashpoint(f"{point}.before_rename")
    os.replace(tmp, final_path)
    faults.crashpoint(f"{point}.renamed")


def _commit_files(path: str, files: dict[str, bytes]) -> None:
    for filename, data in files.items():
        _atomic_write(os.path.join(path, filename), data, "persist.file")
    _fsync_dir(path)
    faults.crashpoint("persist.files_committed")


def _commit_manifest(path: str, manifest: dict) -> None:
    data = json.dumps(manifest, indent=2).encode("utf-8")
    faults.crashpoint("persist.before_manifest")
    _atomic_write(os.path.join(path, _MANIFEST), data, "persist.manifest")
    _fsync_dir(path)
    faults.crashpoint("persist.manifest_committed")


def _stem_of_data_file(entry: str) -> str | None:
    """The document stem a data file belongs to, else ``None``."""
    if entry.endswith(".doc"):
        return entry[:-4]
    if entry.endswith(".sidx"):
        return entry[:-5]
    if entry.endswith(".tidx"):
        stem, sep, _type = entry[:-5].rpartition(".")
        return stem if sep else None
    return None


def _gc_stale_files(path: str, manifest: dict) -> None:
    """Delete data files the committed manifest does not reference.

    Runs only after a successful manifest commit, so everything it
    removes belongs to superseded snapshots or crashed partial commits
    (leftover ``.tmp`` files); a reused stem of an older epoch is
    referenced and survives.
    """
    referenced = set(manifest.get("documents", {}).values())
    for entry in os.listdir(path):
        if entry.endswith(".tmp"):
            stale = True
        else:
            stem = _stem_of_data_file(entry)
            stale = stem is not None and stem not in referenced
        if stale:
            try:
                os.remove(os.path.join(path, entry))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    faults.crashpoint("persist.gc_done")


def read_manifest(path: str) -> dict | None:
    """The committed manifest of ``path``, or ``None`` if absent."""
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.exists(manifest_path):
        return None
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "repro-xmldb":
        raise FormatError(f"{manifest_path!r} is not a repro database")
    return manifest


def manifest_epoch(manifest: dict | None) -> int:
    """Checkpoint epoch of a manifest (0 for version-1 manifests)."""
    if manifest is None:
        return 0
    return int(manifest.get("epoch", 0))


def _next_epoch(path: str) -> int:
    try:
        return manifest_epoch(read_manifest(path)) + 1
    except (FormatError, ValueError, json.JSONDecodeError):
        return 1


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _document_bytes(doc: Document) -> bytes:
    fh = io.BytesIO()
    write_header(fh)
    write_section(fh, "KIND", pack_array(doc.kind, "u1"))
    write_section(fh, "SIZE", pack_array(doc.size, "<u4"))
    write_section(fh, "LEVL", pack_array(doc.level, "<u2"))
    write_section(fh, "NAME", pack_array(doc.name_id, "<i4"))
    write_section(fh, "TEXT", pack_array(doc.text_id, "<i4"))
    write_section(fh, "NIDS", pack_array(doc.nid, "<u8"))
    write_section(fh, "PRNT", pack_array(doc.parent_nid, "<i8"))
    heap = io.BytesIO()
    offsets = []
    for text in doc.texts:
        offsets.append(heap.tell())
        heap.write(text.encode("utf-8"))
    offsets.append(heap.tell())
    write_section(fh, "HEAP", heap.getvalue())
    write_section(fh, "HOFF", pack_array(offsets, "<u8"))
    names = [doc.vocabulary.name_of(i) for i in range(len(doc.vocabulary))]
    vocab_blob = io.BytesIO()
    vocab_offsets = []
    for name in names:
        vocab_offsets.append(vocab_blob.tell())
        vocab_blob.write(name.encode("utf-8"))
    vocab_offsets.append(vocab_blob.tell())
    write_section(fh, "VOCB", vocab_blob.getvalue())
    write_section(fh, "VOFF", pack_array(vocab_offsets, "<u8"))
    write_section(fh, "SRCB", pack_array([doc.source_bytes], "<u8"))
    return fh.getvalue()


def document_bytes(doc: Document) -> bytes:
    """Public alias for the on-disk document encoding — also the unit
    of transfer for shard migration (``docs/sharding.md``)."""
    return _document_bytes(doc)


def document_from_bytes(name: str, payload: bytes) -> Document:
    """Decode one document from its :func:`document_bytes` encoding.

    The returned document carries the *source* engine's nids verbatim;
    an importer that lives in a different nid space must remap them
    (see ``IndexManager.adopt_document``) before registering it.
    """
    doc = Document(name)
    sections: dict[str, bytes] = {}
    buf = io.BytesIO(payload)
    read_header(buf)
    for tag, section in read_sections(buf):
        sections[tag] = section
    required = {"KIND", "SIZE", "LEVL", "NAME", "TEXT", "NIDS", "PRNT",
                "HEAP", "HOFF", "VOCB", "VOFF"}
    missing = required - set(sections)
    if missing:
        raise FormatError(
            f"document payload for {name!r} missing {sorted(missing)}"
        )
    doc.kind = unpack_array(sections["KIND"], "u1")
    doc.size = unpack_array(sections["SIZE"], "<u4")
    doc.level = unpack_array(sections["LEVL"], "<u2")
    doc.name_id = unpack_array(sections["NAME"], "<i4")
    doc.text_id = unpack_array(sections["TEXT"], "<i4")
    doc.nid = unpack_array(sections["NIDS"], "<u8")
    doc.parent_nid = unpack_array(sections["PRNT"], "<i8")
    heap = sections["HEAP"]
    offsets = unpack_array(sections["HOFF"], "<u8")
    doc.texts = [
        heap[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]
    vocab_blob = sections["VOCB"]
    vocab_offsets = unpack_array(sections["VOFF"], "<u8")
    for i in range(len(vocab_offsets) - 1):
        doc.vocabulary.intern(
            vocab_blob[vocab_offsets[i] : vocab_offsets[i + 1]].decode("utf-8")
        )
    if "SRCB" in sections:
        doc.source_bytes = unpack_array(sections["SRCB"], "<u8")[0]
    doc.rebuild_nid_map()
    return doc


def _read_document(name: str, path: str) -> Document:
    with open(path, "rb") as fh:
        payload = faults.filter_read(fh.read(), "persist.read_doc")
    return document_from_bytes(name, payload)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def _read_manifest(path: str) -> dict:
    manifest = read_manifest(path)
    if manifest is None:
        raise ReproError(f"no {_MANIFEST} in {path!r}")
    return manifest


def load_store(path: str, manifest: dict | None = None) -> Store:
    """The store of a directory written by :func:`save_manager`.

    ``manifest`` is the directory's committed manifest when the caller
    has already read it; by default it is read here.
    """
    if manifest is None:
        manifest = _read_manifest(path)
    store = Store()
    for name, stem in manifest["documents"].items():
        doc = _read_document(name, os.path.join(path, f"{stem}.doc"))
        store._register(doc)
    store._next_nid = manifest["next_nid"]
    return store


# ---------------------------------------------------------------------------
# Indices
# ---------------------------------------------------------------------------


def index_bytes(index: ValueIndex, doc: Document) -> bytes:
    """One index's field column for ``doc``: the nids that store a
    field, then the fields as packed by the index."""
    stored = index.fields
    nids = [nid for nid in doc.nid if nid in stored]
    fh = io.BytesIO()
    write_header(fh)
    write_section(fh, "NIDS", pack_array(nids, "<u8"))
    write_section(
        fh, index.column[1], index.pack_fields([stored[nid] for nid in nids])
    )
    return fh.getvalue()


def _stage_index_file(index: ValueIndex, path: str) -> None:
    """Stage one field column back into ``index`` (bulk mode)."""
    with open(path, "rb") as fh:
        read_header(fh)
        sections = dict(read_sections(fh))
    nids = unpack_array(sections["NIDS"], "<u8")
    fields = index.unpack_fields(sections[index.column[1]], len(nids))
    index.stage_entries(zip(nids, fields))


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------


def index_config(manager: IndexManager) -> dict:
    """The manifest's ``"indexes"`` entry for ``manager``: which index
    files each document has, and how the substring index is derived."""
    return {
        "string": manager.string_index is not None,
        "typed": sorted(manager.typed_indexes),
        "substring": (
            manager.substring_index.q
            if manager.substring_index is not None
            else None
        ),
    }


def save_manager(manager: IndexManager, path: str,
                 epoch: int | None = None,
                 reuse: dict[str, str] | None = None) -> dict:
    """Atomically snapshot the store and all index fields to directory
    ``path``; returns the committed manifest (its ``"epoch"`` is the
    checkpoint epoch).

    All data files (documents and index columns) are committed before
    the manifest; the manifest rename is the commit point.  ``reuse``
    maps document names to stems of the snapshot committed in ``path``
    whose files already hold those documents' current bytes under the
    current :func:`index_config`; those documents keep their stems and
    are not serialised again.  Without it every document is written.
    """
    os.makedirs(path, exist_ok=True)
    if epoch is None:
        epoch = _next_epoch(path)
    reuse = reuse or {}
    documents = manager.store.documents
    written = _assign_stems(
        (name for name in documents if name not in reuse), epoch)
    files: dict[str, bytes] = {}
    for name, stem in written.items():
        doc = documents[name]
        files[f"{stem}.doc"] = _document_bytes(doc)
        for index in manager.indexes:
            if index.column is not None:
                files[stem + index.column[0]] = index_bytes(index, doc)
    stems = {name: reuse.get(name) or written[name] for name in documents}
    manifest = {
        "format": "repro-xmldb",
        "version": _MANIFEST_VERSION,
        "epoch": epoch,
        "documents": stems,
        "next_nid": manager.store._next_nid,
        "indexes": index_config(manager),
    }
    _commit_files(path, files)
    _commit_manifest(path, manifest)
    _gc_stale_files(path, manifest)
    return manifest


def load_manager(path: str, manifest: dict | None = None) -> IndexManager:
    """Open a directory written by :func:`save_manager`.

    Per-node fields are read back from the index files (no re-hashing,
    no FSM runs) and staged through the index protocol, which rebuilds
    the sorted runs by one column merge; an index without a persisted
    column (substring) is re-derived by the creation pass.  As with
    :func:`load_store`, ``manifest`` saves re-reading the manifest.
    """
    if manifest is None:
        manifest = _read_manifest(path)
    config = manifest["indexes"]
    store = load_store(path, manifest)
    manager = IndexManager(
        store=store,
        string=config["string"],
        typed=tuple(config["typed"]),
        substring=config["substring"] is not None,
    )
    indexes = manager.indexes
    derived = [index for index in indexes if index.column is None]
    for index in indexes:
        index.begin_bulk()
    for name, doc in store.documents.items():
        stem = manifest["documents"][name]
        for index in indexes:
            if index.column is not None:
                _stage_index_file(
                    index, os.path.join(path, stem + index.column[0])
                )
        if derived:
            compute_fields(doc, 0, len(doc) - 1, derived, bulk=True)
    for index in indexes:
        index.finish_bulk()
    # The runs were installed outside a writer scope: publish them, or
    # read views would pin the empty snapshot taken at construction.
    manager.concurrency.publish()
    return manager
