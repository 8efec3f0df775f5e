"""The nid→pre map as runs (:class:`repro.xmldb.columns.DocColumns`).

A hypothesis state machine drives two documents through loads, every
structural splice, renames, text updates and checkpoint + reopen.  After
every step each document's ``pres_of_nids`` and ``parent_pre`` must
equal what ``{nid: pre for pre, nid in enumerate(doc.nid)}`` says, for
probe batches that mix the document's own nids with the other
document's, deleted ones and never-minted ones, in random order; and
``pres_of_nids`` with a node test must equal the untested map followed
by :func:`~repro.query.kernels.match_test`, as the executor's index
lookups use it.  The
run count is pinned too: one run after a load, unchanged by text
updates, renames and reopens, and at most two more per splice.
"""

import random
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import IndexManager
from repro.query.ast import (
    AttributeTest,
    NameTest,
    TextTest,
    WildcardTest,
)
from repro.query.kernels import match_test
from repro.storage.persist import load_manager, save_manager
from repro.xmldb import ATTR, DOC, ELEM, TEXT

NAMES = ("a", "b")
#: Node tests over the documents' shapes: names present (``v``, ``x``,
#: ``k``), one only a rename makes (``z``), one never present (``q``).
TESTS = (NameTest("v"), NameTest("x"), NameTest("z"), NameTest("q"),
         WildcardTest(), TextTest(), AttributeTest("k"), AttributeTest("*"))
_VALUES = ["", "7", "x y", "2.5"]


def _xml(width: int) -> str:
    items = "".join(
        f'<i k="{n}"><v>{n}</v>{"<w>t</w>" * (n % 3)}</i>'
        for n in range(width)
    )
    return f"<r>{items}</r>"


def _pres(doc, kinds):
    return [pre for pre in range(len(doc)) if doc.kind[pre] in kinds]


class NidRunsMachine(RuleBasedStateMachine):
    @initialize(widths=st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def setup(self, widths):
        self.manager = IndexManager(string=True)
        self.directory = tempfile.mkdtemp(prefix="nid-runs-")
        self.seen: set[int] = set()
        #: Documents no splice touched since their load: one run each.
        self.pristine: set[str] = set()
        self.step = 0
        for name, width in zip(NAMES, widths):
            self._load(name, width)

    def teardown(self):
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)

    def _doc(self, name):
        return self.manager.store.document(name)

    def _runs(self, name) -> int:
        return self._doc(name).columns().runs

    def _load(self, name, width):
        if name in self.manager.store.documents:
            self.manager.unload(name)
        self.manager.load(name, _xml(width))
        self.seen.update(self._doc(name).nid)
        assert self._runs(name) == 1
        self.pristine.add(name)

    def _splice(self, name, splice):
        before = self._runs(name)
        change = splice()
        self.seen.update(change.added_nids)
        assert self._runs(name) <= before + 2
        self.pristine.discard(name)

    @rule(name=st.sampled_from(NAMES), width=st.integers(0, 6))
    def load(self, name, width):
        self._load(name, width)

    @rule(name=st.sampled_from(NAMES), pick=st.integers(0, 10**6),
          before=st.booleans(), width=st.integers(1, 3))
    def insert_xml(self, name, pick, before, width):
        doc = self._doc(name)
        parents = _pres(doc, (DOC, ELEM))
        parent = parents[pick % len(parents)]
        children = list(doc.children(parent))
        before_nid = None
        if before and children:
            before_nid = doc.nid[children[pick % len(children)]]
        fragment = "".join(f"<x>{n}<y/></x>" for n in range(width))
        self._splice(name, lambda: self.manager.insert_xml(
            doc.nid[parent], fragment, before_nid
        ))

    @rule(name=st.sampled_from(NAMES), pick=st.integers(0, 10**6))
    def delete_subtree(self, name, pick):
        doc = self._doc(name)
        victims = _pres(doc, (ELEM, TEXT, ATTR))
        if victims:
            nid = doc.nid[victims[pick % len(victims)]]
            self._splice(name, lambda: self.manager.delete_subtree(nid))

    @rule(name=st.sampled_from(NAMES), pick=st.integers(0, 10**6),
          value=st.sampled_from(_VALUES))
    def insert_attribute(self, name, pick, value):
        doc = self._doc(name)
        owners = _pres(doc, (ELEM,))
        if owners:
            owner = doc.nid[owners[pick % len(owners)]]
            self.step += 1
            self._splice(name, lambda: self.manager.insert_attribute(
                owner, f"n{self.step}", value
            ))

    @rule(name=st.sampled_from(NAMES), pick=st.integers(0, 10**6))
    def rename(self, name, pick):
        doc = self._doc(name)
        elements = _pres(doc, (ELEM,))
        if elements:
            before = self._runs(name)
            self.manager.rename(doc.nid[elements[pick % len(elements)]], "z")
            assert self._runs(name) == before

    @rule(name=st.sampled_from(NAMES), picks=st.lists(
        st.integers(0, 10**6), min_size=1, max_size=4),
        value=st.sampled_from(_VALUES))
    def update_texts(self, name, picks, value):
        doc = self._doc(name)
        leaves = _pres(doc, (TEXT, ATTR))
        if leaves:
            before = self._runs(name)
            self.manager.update_texts(
                [(doc.nid[leaves[p % len(leaves)]], value) for p in picks]
            )
            assert self._runs(name) == before

    @rule()
    def checkpoint_and_reopen(self):
        before = {name: self._runs(name) for name in NAMES}
        save_manager(self.manager, self.directory)
        self.manager = load_manager(self.directory)
        assert {name: self._runs(name) for name in NAMES} == before

    @invariant()
    def runs_after_loads(self):
        if hasattr(self, "manager"):
            for name in self.pristine:
                assert self._runs(name) == 1, name

    @invariant()
    def map_equals_the_reference(self):
        if not hasattr(self, "manager"):
            return
        self.step += 1
        rng = random.Random(self.step)
        docs = [self._doc(name) for name in NAMES]
        live = {nid for doc in docs for nid in doc.nid}
        deleted = sorted(self.seen - live)
        top = max(self.seen) + 1
        never = [-5, -1, top, top + 1, top + 1000]
        for doc, other in (docs, docs[::-1]):
            reference = {nid: pre for pre, nid in enumerate(doc.nid)}
            cols = doc.columns()
            expected_parents = [reference.get(p, -1) for p in doc.parent_nid]
            assert cols.parent_pre.tolist() == expected_parents
            for _ in range(3):
                batch = (
                    rng.sample(doc.nid, rng.randint(0, len(doc)))
                    + rng.sample(other.nid, rng.randint(0, len(other)))
                    + rng.sample(deleted, min(len(deleted), rng.randint(0, 5)))
                    + rng.sample(never, rng.randint(0, len(never)))
                )
                rng.shuffle(batch)
                nids = np.asarray(batch, dtype=np.int64)
                got = cols.pres_of_nids(nids)
                want = sorted(reference[n] for n in batch if n in reference)
                assert got.tolist() == want
                test = rng.choice(TESTS)
                tested = cols.pres_of_nids(
                    nids, lambda rows: match_test(cols, rows, test)
                )
                assert tested.tolist() == got[
                    match_test(cols, got, test)].tolist(), test


NidRunsMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestNidRuns = NidRunsMachine.TestCase


def test_a_splice_adds_at_most_two_runs():
    """200 random splices on one document, each checked against the
    dict reference, and none adding more than two runs."""
    manager = IndexManager(string=False)
    manager.load("other", _xml(3))
    doc = manager.load("d", _xml(8))
    rng = random.Random(11)
    for step in range(200):
        before = doc.columns().runs
        elements = _pres(doc, (ELEM,))
        choice = rng.randrange(3)
        if choice == 0 or len(elements) < 3:
            parent = rng.choice(_pres(doc, (DOC, ELEM)))
            children = list(doc.children(parent))
            before_nid = doc.nid[rng.choice(children)] if children else None
            manager.insert_xml(doc.nid[parent], "<x>1<y/></x>", before_nid)
        elif choice == 1:
            manager.delete_subtree(doc.nid[rng.choice(elements[1:])])
        else:
            manager.insert_attribute(doc.nid[rng.choice(elements)],
                                     f"s{step}", "v")
        cols = doc.columns()
        assert cols.runs <= before + 2
        nids = np.asarray(doc.nid, dtype=np.int64)
        assert cols.pres_of_nids(nids[::-1].copy()).tolist() == list(
            range(len(doc))
        )
