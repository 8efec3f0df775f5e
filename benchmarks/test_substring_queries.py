"""Extension bench — substring/regex lookups (paper's future work).

Measures the q-gram index against full-scan ``contains``/``matches``
on the text-heavy Wiki dataset, plus its build and storage overhead.
"""

import pytest

from repro.core import IndexManager
from repro.core.substring_index import SubstringIndex
from repro.workloads import bench_scale, dataset
from repro.xmldb import ATTR, TEXT

NAME = "Wiki"


@pytest.fixture(scope="module")
def managers():
    xml = dataset(NAME).build(bench_scale())
    with_index = IndexManager(string=False, typed=(), substring=True)
    with_index.load(NAME, xml)
    without_index = IndexManager(string=False, typed=())
    without_index.load(NAME, xml)
    return with_index, without_index


@pytest.fixture(scope="module")
def needle(managers):
    """A needle occurring in a handful of leaves: a URL path suffix."""
    with_index, _ = managers
    doc = with_index.store.document(NAME)
    url = next(
        doc.text_of(p)
        for p in range(len(doc))
        if doc.text_id[p] >= 0 and doc.text_of(p).startswith("http")
    )
    return url[-8:]


def test_substring_index_build(benchmark, managers):
    with_index, _ = managers
    doc = with_index.store.document(NAME)
    leaves = [
        (doc.nid[p], doc.text_of(p))
        for p in range(len(doc))
        if doc.kind[p] in (TEXT, ATTR)
    ]

    def build():
        index = SubstringIndex()
        for nid, text in leaves:
            index.set_entry(nid, index.field_of_text(text))
        return index

    index = benchmark(build)
    assert len(index) > 0


def test_contains_with_index(benchmark, managers, needle):
    with_index, _ = managers
    hits = benchmark(lambda: list(with_index.lookup_contains(needle)))
    assert hits


def test_contains_with_scan(benchmark, managers, needle):
    with_index, without_index = managers
    hits = benchmark(lambda: list(without_index.lookup_contains(needle)))
    assert len(hits) == len(list(with_index.lookup_contains(needle)))


def test_regex_with_index(benchmark, managers, needle):
    with_index, _ = managers
    pattern = f"wiki/.*{needle[-4:]}"
    benchmark(lambda: list(with_index.lookup_regex(pattern)))


def test_substring_speedup_and_storage(benchmark, managers, needle):
    import time

    with_index, without_index = managers
    start = time.perf_counter()
    indexed = list(with_index.lookup_contains(needle))
    indexed_seconds = time.perf_counter() - start
    start = time.perf_counter()
    scanned = list(without_index.lookup_contains(needle))
    scan_seconds = time.perf_counter() - start
    assert sorted(indexed) == sorted(scanned)
    assert indexed_seconds < scan_seconds
    db = with_index.store.byte_size()
    sub = with_index.substring_index.byte_size()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(
        f"\nSubstring: index {indexed_seconds * 1000:.1f} ms vs scan "
        f"{scan_seconds * 1000:.1f} ms "
        f"({scan_seconds / max(indexed_seconds, 1e-9):.0f}x); "
        f"storage {sub / db:.0%} of DB"
    )
