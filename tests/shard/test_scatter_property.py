"""Cross-shard merge correctness, property style (seeded random).

Random document placements over random shard counts, random queries
from the evaluation workload — the scatter-gathered result must be
bit-identical to the single-engine oracle computed per document with
:func:`repro.query.evaluate_naive`: same ``(document, pre)`` rows, same
global order (document load order, then pre), and no duplicates across
the per-shard ``Union`` boundaries.  Two placements get a test of
their own: an interleaved one, and a migrated document whose source
copy an open :class:`~repro.shard.ClusterView` still retains.
"""

import random

import pytest

from repro.query import evaluate_naive, parse_query
from repro.workloads import DATASETS, QUERY_SETS

from .conftest import make_cluster

#: Corpus of the property rounds (small generator scales).
_CORPUS_SPECS = [("XMark1", 0.05), ("DBLP", 0.05), ("PSD", 0.05),
                 ("Wiki", 0.05)]

#: Query pool: every workload query of the corpus datasets.
_POOL = [
    (f"{dataset}/{name}", text)
    for dataset, _scale in _CORPUS_SPECS
    for name, text in QUERY_SETS[dataset]
]


@pytest.fixture(scope="module")
def corpus():
    """(name, xml, Document) per dataset — the oracle evaluates on the
    parsed Document directly, placement-independently."""
    from repro.core.manager import IndexManager

    manager = IndexManager()
    out = []
    for name, scale in _CORPUS_SPECS:
        xml = DATASETS[name].build(scale)
        out.append((name, xml, manager.load(name, xml)))
    return out


def _oracle(corpus, order, text):
    """Naive per-document evaluation in global load order."""
    path = parse_query(text).path
    docs = {name: doc for name, _xml, doc in corpus}
    rows = []
    for name in order:
        rows.extend((name, int(pre))
                    for pre in sorted(evaluate_naive(docs[name], path)))
    return rows


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_random_placement_matches_oracle(tmp_path, corpus, seed):
    rng = random.Random(seed)
    shards = rng.randrange(1, 5)
    names = [name for name, _xml, _doc in corpus]
    rng.shuffle(names)
    cluster = make_cluster(tmp_path, shards=shards)
    try:
        placement = {}
        for name in names:
            xml = next(x for n, x, _d in corpus if n == name)
            placement[name] = rng.randrange(shards)
            cluster.load(name, xml, shard=placement[name])
        for label, text in rng.sample(_POOL, 8):
            got = cluster.query_pres(text)
            expected = _oracle(corpus, names, text)
            assert got == expected, (
                f"seed={seed} shards={shards} placement={placement} "
                f"query={label!r}: scatter-gather diverged from oracle"
            )
            assert len(set(got)) == len(got), (
                f"seed={seed} query={label!r}: duplicate rows across "
                "the shard Union"
            )
    finally:
        cluster.stop()


def test_hash_placement_matches_oracle(tmp_path, corpus):
    """Default (hash) placement, full query pool, 3 shards."""
    cluster = make_cluster(tmp_path, shards=3)
    names = [name for name, _xml, _doc in corpus]
    try:
        for name, xml, _doc in corpus:
            cluster.load(name, xml)
        for _label, text in _POOL:
            assert cluster.query_pres(text) == _oracle(corpus, names, text)
    finally:
        cluster.stop()

#: Queries with rows in two to four corpus documents (every pool query
#: selects from one dataset only), so the gather has groups to order.
_ACROSS = [
    ("root elements", "/*"),
    ("contains on every document", '//*[contains(., "vogon")]'),
    ("string equality", '//*[. = "1999"]'),
    ("typed range", "//*[year >= 1999]"),
    ("name test", "//title"),
]


def _check_queries(cluster, corpus, order, texts, view=None):
    for label, text in texts:
        got = cluster.query_pres(text, view=view)
        assert got == _oracle(corpus, order, text), (
            f"query={label!r} view={view is not None}: gather order "
            "diverged from the single-engine order"
        )


def test_interleaved_placement_matches_oracle(tmp_path, corpus):
    """Every shard holds documents that are not adjacent in load order
    (and neither shard's first document is the first one loaded)."""
    names = [name for name, _xml, _doc in corpus]
    cluster = make_cluster(tmp_path, shards=2)
    try:
        for shard, (name, xml, _doc) in zip([1, 0, 1, 0], corpus):
            cluster.load(name, xml, shard=shard)
        _check_queries(cluster, corpus, names,
                       _ACROSS + random.Random(7).sample(_POOL, 4))
    finally:
        cluster.stop()


def test_migrated_document_retained_by_open_view(tmp_path, corpus):
    """Migrate the first document while a view is open.  The source
    keeps its copy for the view, so it now holds a document it was not
    asked for; the destination holds the document last in its store.
    Pinned and un-pinned queries must both match the oracle."""
    names = [name for name, _xml, _doc in corpus]
    cluster = make_cluster(tmp_path, shards=2)
    try:
        for shard, (name, xml, _doc) in zip([0, 0, 1, 1], corpus):
            cluster.load(name, xml, shard=shard)
        texts = _ACROSS + random.Random(11).sample(_POOL, 4)
        with cluster.read_view() as view:
            cluster.migrate_document(names[0], 1)
            assert cluster.manifest.placement[names[0]] == 1
            _check_queries(cluster, corpus, names, texts, view=view)
            _check_queries(cluster, corpus, names, texts)
        _check_queries(cluster, corpus, names, texts)
    finally:
        cluster.stop()
