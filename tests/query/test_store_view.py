"""The store-wide column view against the per-document oracle.

An unscoped query runs its plan once over every document's planes
concatenated in store order (:meth:`Store.columns`); a scoped one over
its document's own view.  Over three documents with different
vocabularies — ``rare`` exists in one of them only, and ``price`` and
``book`` have a different local id in each — every query's unscoped
rows must equal the concatenation of :func:`evaluate_naive` over the
documents, and each scoped answer the unscoped rows of its document.
The check runs after each change the view must follow: mid-document
splices (fragmented nid runs), an unload, a reload under the same name
and a rename.  A view left stale after ``rename``/``insert_xml`` must
make it fail.
"""

from __future__ import annotations

import pytest

from repro.core import IndexManager
from repro.query import evaluate_naive, parse_query, query_rows
from repro.xmldb import ELEM, Store
from repro.xmldb.columns import DocColumns


def _book(year: int, price: int, title: str) -> str:
    return (f'<book year="{year}"><title>{title}</title>'
            f"<price>{price}</price></book>")


DOCS = {
    "a": "<lib>" + "".join(
        _book(1990 + i, 5 * i, f"t{i % 3}") for i in range(8)
    ) + "</lib>",
    # ``price`` first: a different local id than in ``a``.
    "b": "<shop><price>10</price>" + "".join(
        _book(2000 + i, 3 * i, f"t{i % 2}") for i in range(6)
    ) + "</shop>",
    # Mixed-content titles: "t1" spread over two text nodes.
    "c": "<lib><rare><v>1</v></rare>" + "".join(
        _book(1995, 10, "t1") for _ in range(3)
    ) + _book(1996, 10, "t<i>1</i>") * 2 + "<rare><v>2</v></rare></lib>",
}

QUERIES = (
    "//book[price = 10]",
    "//book[price > 12]",
    "//book[price >= 5 and price < 20]",
    '//book[title = "t1"]',
    '//book[@year = "1995" or @year = "2001"]',
    '//rare[v = "1"]',
    "//rare",
    "//book/title",
    "/lib/book[price < 30]",
    "//*[price = 10]",
    '//book[contains(title/text(), "t1")]',
    "//book[2]",
    "//volume[price = 10]",
    "//volume",
)


def _oracle(manager, text: str) -> list[tuple[str, int, int]]:
    path = parse_query(text).path
    return [
        (doc.name, pre, doc.nid[pre])
        for doc in manager.store.documents.values()
        for pre in evaluate_naive(doc, path)
    ]


def _divergences(manager) -> list[tuple]:
    found = []
    for text in QUERIES:
        want = _oracle(manager, text)
        for mode in (True, "auto", False):
            got = query_rows(manager, text, use_indexes=mode)
            if got != want:
                found.append((text, mode))
            for name in manager.store.documents:
                scoped = query_rows(manager, text, name, use_indexes=mode)
                if scoped != [row for row in got if row[0] == name]:
                    found.append((text, mode, name))
    return found


def _elements(doc, name: str) -> list[int]:
    return [pre for pre in range(len(doc))
            if doc.kind[pre] == ELEM and doc.name_of(pre) == name]


def _lifecycle(manager):
    """Yield after each change the store view has to follow."""
    for name, xml in DOCS.items():
        manager.load(name, xml)
    yield "loaded"
    doc = manager.store.document("a")
    books = _elements(doc, "book")
    manager.insert_xml(doc.nid[doc.root_element()],
                       _book(1995, 10, "t1"), before_nid=doc.nid[books[3]])
    manager.delete_subtree(doc.nid[_elements(doc, "book")[6]])
    doc = manager.store.document("c")
    manager.insert_xml(doc.nid[_elements(doc, "rare")[0]],
                       "<v>3</v>", before_nid=None)
    assert manager.store.document("a").columns().runs > 1
    yield "spliced"
    manager.unload("b")
    yield "unloaded"
    manager.load("b", DOCS["a"].replace("<lib>", "<lib><rare/>"))
    yield "reloaded"
    doc = manager.store.document("c")
    for pre in _elements(doc, "book")[:2]:
        manager.rename(doc.nid[pre], "volume")
    yield "renamed"


def test_store_view_matches_the_per_document_oracle():
    manager = IndexManager(typed=("double",), substring=True)
    for stage in _lifecycle(manager):
        assert _divergences(manager) == [], stage
    vocabularies = [
        doc.vocabulary.lookup("price")
        for doc in manager.store.documents.values()
    ]
    assert len(set(vocabularies)) > 1  # one name, several local ids


def test_a_view_left_stale_by_a_splice_or_rename_is_caught(monkeypatch):
    def stale(self):
        docs = tuple(self.documents.values())
        view = self._columns
        if view is None or view.docs != docs:  # ignores the versions
            view = self._columns = DocColumns(docs)
        return view

    monkeypatch.setattr(Store, "columns", stale)
    manager = IndexManager(typed=("double",), substring=True)
    stages = {
        stage: _divergences(manager) for stage in _lifecycle(manager)
    }
    assert stages["loaded"] == []
    assert stages["spliced"] and stages["renamed"]


@pytest.mark.parametrize("stage", ["loaded", "renamed"])
def test_the_view_is_cached_between_changes(stage):
    manager = IndexManager(typed=("double",))
    for reached in _lifecycle(manager):
        if reached == stage:
            break
    view = manager.store.columns()
    manager.update_text(view.nid[int(view.text_positions()[0])], "x")
    assert manager.store.columns() is view  # text updates keep it
    assert view.names.lookup("price") is not None
