"""Differential suite: the plan executor vs. the naive oracle.

The executor must be bit-identical to ``use_indexes=False`` (the
``evaluate_naive`` full scan) on every workload query, in every
``use_indexes`` mode, under any planner statistics (zero, infinite or
stale), and its supporting caches (contains/regex memo, lazy nid map,
plan-proved predicate elision) must never leak stale results across
mutations.  ``TestOracleIsNotBlind`` injects executor
bugs and requires this same check to report them.
"""

import random
from dataclasses import replace

import pytest

from repro.btree.sorted_run import RunSnapshot
from repro.core import IndexManager
from repro.query import executor, kernels, parse_query, query
from repro.query.ast import AnyTest
from repro.query.planner import build_plan, explain
from repro.query.plan import (
    AncestorWalk,
    IndexLookup,
    Intersect,
    StructuralVerify,
    Union as PlanUnion,
)
from repro.storage.persist import document_bytes, document_from_bytes
from repro.workloads import DATASETS, QUERY_SETS, random_text_updates

#: Small generator scale: a few thousand nodes per corpus keeps the
#: sweep in tier-1 time while exercising every query shape.
SCALE = 1.0

CORPORA = ("XMark1", "DBLP", "PSD", "Wiki", "EPAGeo")


@pytest.fixture(scope="module")
def managers():
    loaded = {}
    for name in CORPORA:
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load(name, DATASETS[name].build(SCALE))
        loaded[name] = manager
    return loaded


def _workload_cases():
    for dataset in CORPORA:
        for query_name, text in QUERY_SETS[dataset]:
            yield pytest.param(
                dataset, text, id=f"{dataset}-{query_name}"
            )


@pytest.fixture(scope="module")
def oracle(managers):
    """``evaluate_naive`` answers of every workload query."""
    return {
        (dataset, text): query(managers[dataset], text, use_indexes=False)
        for dataset in CORPORA
        for _name, text in QUERY_SETS[dataset]
    }


def _divergences(managers, oracle):
    """``(dataset, text, mode)`` of every workload query some index
    mode answers differently from the oracle."""
    return [
        (dataset, text, mode)
        for (dataset, text), naive in oracle.items()
        for mode in (True, "auto")
        if query(managers[dataset], text, use_indexes=mode) != naive
    ]


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("use_indexes", [True, False, "auto"])
    @pytest.mark.parametrize("dataset,text", _workload_cases())
    def test_executor_matches_oracle(self, managers, oracle, dataset, text,
                                     use_indexes):
        answer = query(managers[dataset], text, use_indexes=use_indexes)
        assert answer == oracle[dataset, text]


class _ConstantStatistics:
    """Statistics (and histogram) whose every estimate is one number."""

    def __init__(self, value):
        self.value = value
        self.histogram = self

    def estimate(self, *_args):
        return self.value

    estimate_equal = estimate_less_equal = estimate_range = estimate


@pytest.fixture(scope="module")
def drifted():
    """Per corpus: a manager that took its statistics snapshots and
    *then* rewrote a tenth of its text nodes, those stale snapshots,
    and the naive answers over the updated documents."""
    loaded = {}
    for name in CORPORA:
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        # A third of the sweep's scale: constant estimates force both
        # sides of every pricing decision whatever the corpus size.
        doc = manager.load(name, DATASETS[name].build(SCALE / 3))
        stale = {
            kind: manager.statistics(kind) for kind in ("string", "double")
        }
        manager.update_texts(random_text_updates(
            doc, len(doc) // 10, random.Random(5), numeric_share=0.5
        ))
        naive = {
            text: query(manager, text, use_indexes=False)
            for _name, text in QUERY_SETS[name]
        }
        loaded[name] = manager, stale, naive
    return loaded


class TestEstimatesNeverChangeAnswers:
    """Every reader — pinned, as-of or live — prices from one shared,
    possibly stale statistics snapshot.  That is sound only if an
    estimate can pick a slower plan but never a wrong one: whatever
    ``IndexManager.statistics`` claims, rows equal the oracle's."""

    @pytest.mark.parametrize("use_indexes", [True, "auto"])
    @pytest.mark.parametrize("snapshot", ["zero", "infinite", "stale"])
    @pytest.mark.parametrize("dataset,text", _workload_cases())
    def test_adversarial_statistics(self, drifted, monkeypatch, dataset,
                                    text, snapshot, use_indexes):
        manager, stale, naive = drifted[dataset]
        adversarial = {
            "zero": lambda kind: _ConstantStatistics(0.0),
            "infinite": lambda kind: _ConstantStatistics(float("inf")),
            "stale": stale.__getitem__,
        }[snapshot]
        monkeypatch.setattr(
            IndexManager, "statistics", lambda self, kind: adversarial(kind)
        )
        manager._plan_cache.clear()  # price this plan, not a cached one
        assert query(manager, text, use_indexes=use_indexes) == naive[text]


class TestOracleIsNotBlind:
    """With one executor, the oracle comparison is the only thing that
    kills executor bugs — so prove it does: each injected bug must make
    the equivalence check above report a divergence."""

    def test_clean_executor_has_no_divergence(self, managers, oracle):
        assert _divergences(managers, oracle) == []

    def test_verify_skipping_the_outermost_step_filter_is_caught(
        self, managers, oracle, monkeypatch
    ):
        def buggy(cols, candidates, steps, skip_predicate):
            unfiltered = replace(steps[0], test=AnyTest())
            return kernels.structural_verify(
                cols, candidates, (unfiltered, *steps[1:]),
                skip_predicate,
            )

        monkeypatch.setattr(executor, "structural_verify", buggy)
        assert _divergences(managers, oracle)

    def test_walk_skipping_the_node_tests_is_caught(
        self, managers, oracle, monkeypatch
    ):
        # The axis-confusion bugs are injected in
        # test_vectorized_kernels_property.py: these flat corpora are
        # blind to them.  The lookup under the walk applies the walk's
        # last-step tests too, so the skip goes in both places.
        def buggy(cols, hits, steps):
            untested = tuple(replace(step, test=AnyTest()) for step in steps)
            return kernels.ancestor_walk(cols, hits, untested)

        monkeypatch.setattr(executor, "ancestor_walk", buggy)
        monkeypatch.setattr(
            executor, "match_test",
            lambda cols, pres, test: kernels.match_test(cols, pres, AnyTest()),
        )
        assert _divergences(managers, oracle)


#: Each multi-document corpus is the sweep's corpus at a third of its
#: scale, loaded as three documents that share every index.
COPIES = 3

#: Per corpus, queries with two different probes of one index and hits
#: for both; the workload queries have none (their one disjunction
#: matches nothing), so without these a planner sharing one lookup
#: between disjuncts of equal probes could confuse two scans unnoticed.
#: XMark1's second query is one shared probe walked through two names
#: (``quantity`` and ``price``, each with hits the other lacks), so the
#: lookup must keep the rows of either operand's last-step test.
TWO_PROBES = {
    "XMark1": [
        "//item[price < 10 or price > 500]",
        "//item[quantity < 1 or price < 1]",
    ],
    "DBLP": [
        "//article[year = 1999 or year = 2001]",
        '//article[journal = "EDBT" or journal = "VLDB"]',
    ],
    "PSD": ["//protein[length = 60 or length > 80]"],
    "Wiki": ["//doc[pageid < 50 or pageid > 200]"],
    "EPAGeo": [
        "//facility[latitude > 40 or latitude < 30]",
        '//facility[@state = "AZ" or @state = "CA"]',
    ],
}


@pytest.fixture(scope="module")
def multi_document():
    """Per corpus: a manager holding ``COPIES`` documents of it."""
    loaded = {}
    for name in CORPORA:
        manager = IndexManager(string=True, typed=("double",))
        xml = DATASETS[name].build(SCALE / COPIES)
        for copy in range(COPIES):
            manager.load(f"{name}-{copy}", xml)
        loaded[name] = manager
    return loaded


def _multi_divergences(managers):
    """``(dataset, text, mode)`` of every workload (or two-probe) query
    some index mode answers differently from the scan over every
    document."""
    found = []
    for dataset, manager in managers.items():
        texts = [text for _name, text in QUERY_SETS[dataset]]
        for text in texts + TWO_PROBES[dataset]:
            naive = query(manager, text, use_indexes=False)
            found.extend(
                (dataset, text, mode)
                for mode in (True, "auto")
                if query(manager, text, use_indexes=mode) != naive
            )
    return found


class TestMultiDocumentEquivalence:
    """One plan and one index scan per query serve every document: the
    workload queries over several documents of one corpus, with text
    updates interleaved (plans stay cached across them, index scans
    are made afresh by every query), against the naive scan of every
    document."""

    def test_matches_oracle_across_text_updates(self, multi_document):
        rng = random.Random(11)
        assert _multi_divergences(multi_document) == []
        for copy in range(COPIES - 1):  # the last copy stays as loaded
            for name, manager in multi_document.items():
                doc = manager.store.document(f"{name}-{copy}")
                manager.update_texts(random_text_updates(
                    doc, len(doc) // 20, rng, numeric_share=0.5
                ))
            assert _multi_divergences(multi_document) == []

    def test_probe_memo_keyed_without_its_bounds_is_caught(
        self, multi_document, monkeypatch
    ):
        # Disjuncts whose lookups have equal probes share one lookup
        # (``planner._share_probes``): a probe without its bounds must
        # not merge two different scans unnoticed.
        made = IndexLookup.__init__

        def buggy(self, kind, *args, **kwargs):
            made(self, kind, *args, **kwargs)
            self.probe = kind

        monkeypatch.setattr(IndexLookup, "__init__", buggy)
        for manager in multi_document.values():
            manager._plan_cache.clear()
        try:
            assert _multi_divergences(multi_document)
        finally:
            for manager in multi_document.values():
                manager._plan_cache.clear()

    def test_one_index_scan_per_lookup(self, monkeypatch):
        m = IndexManager(typed=("double",))
        for copy in range(4):
            m.load(f"d{copy}", "<people>" + "".join(
                f"<p><age>{i}</age><name>n{i % 7}</name></p>"
                for i in range(40)
            ) + "</people>")
        scans = []
        scan = RunSnapshot.nids_between
        monkeypatch.setattr(
            RunSnapshot, "nids_between",
            lambda *args, **kwargs: scans.append(1) or scan(*args, **kwargs),
        )
        for text, probes, rows in (
            ('//p[name = "n3"]', 1, 24),
            ("//p[age = 7 or age = 9]", 2, 8),
            ("//p[age >= 10 and age < 20]", 3, 40),  # window ∪ (¬h ∩ ¬l)
            ("//p[age = 7 or .//age = 7]", 1, 4),  # two lookups, one probe
        ):
            for mode in (True, "auto"):
                scans.clear()
                assert len(query(m, text, use_indexes=mode)) == rows
                assert len(scans) == probes, (text, mode)
        scans.clear()
        query(m, "//p[age = 7 or age = 9]", document="d2")
        assert len(scans) == 2

    def test_explain_execute_scans_once_and_reports_nid_runs(
        self, monkeypatch
    ):
        m = IndexManager(typed=("double",))
        for copy in range(4):
            m.load(f"d{copy}", "<people>" + "".join(
                f"<p><age>{i}</age><name>n{i % 7}</name></p>"
                for i in range(40)
            ) + "</people>")
        scans = []
        scan = RunSnapshot.nids_between
        monkeypatch.setattr(
            RunSnapshot, "nids_between",
            lambda *args, **kwargs: scans.append(1) or scan(*args, **kwargs),
        )
        for text, probes in (
            ('//p[name = "n3"]', 1),
            ("//p[age = 7 or age = 9]", 2),
            ("//p[age = 7 or .//age = 7]", 1),
        ):
            scans.clear()
            report = explain(m, text, execute=True)
            assert len(scans) == probes, text
            assert [r.nid_runs for r in report.reports] == [1] * 4
            assert report.to_dict()["documents"][0]["nid_runs"] == 1
            # One pipeline ran over the four documents: they share its
            # actuals, and the tree shows it once.
            actuals = report.reports[0].actuals
            assert all(r.actuals is actuals for r in report.reports)
            assert actuals[0]["rows"] == len(query(m, text))
            tree = report.tree()
            assert tree.count("StructuralVerify") == 1
            assert tree.count("(nid runs 1)") == 4
        doc = m.store.document("d1")
        m.insert_xml(doc.nid[doc.root_element()], "<p><age>1</age></p>",
                     before_nid=doc.nid[7])  # the second <p>: a mid splice
        runs = {r.document: r.nid_runs for r in explain(m, "//p").reports}
        assert runs == {"d0": 1, "d1": 3, "d2": 1, "d3": 1}


class TestPlanProvedPredicates:
    """The residual re-check shrinks exactly as the plan proves parts
    of the predicate, and never drops an unproven conjunct."""

    def _verify_node(self, manager, text):
        parsed = parse_query(text)
        doc = next(iter(manager.store.documents.values()))
        plan = build_plan(manager, doc, parsed.path, True)
        assert isinstance(plan, StructuralVerify)
        return plan

    def test_single_driver_fully_proved(self, managers):
        node = self._verify_node(managers["XMark1"], "//item[price < 10]")
        assert node.residual == ()

    def test_fused_range_window(self, managers):
        node = self._verify_node(
            managers["DBLP"],
            "//inproceedings[year >= 2000 and year < 2005]",
        )
        fused = node.children[0]
        # Exact decomposition: window ∪ (walk(¬high) ∩ walk(¬low)) —
        # XPath conjuncts are existential, so the straddling case
        # (one year past the window, another below it) needs the
        # complement branch.
        assert isinstance(fused, PlanUnion)
        window, complement = fused.children
        assert isinstance(window, AncestorWalk)
        assert isinstance(complement, Intersect)
        lookup = window.children[0]
        assert isinstance(lookup, IndexLookup)
        # Both conjuncts fused into one bounded window scan...
        assert lookup.bounds == {
            "low": 2000.0, "include_low": True,
            "high": 2005.0, "include_high": False,
        }
        assert len(lookup.proves) == 2
        # ...and every branch proves both, so no re-check remains.
        assert node.residual == ()

    def test_partially_covered_conjunction_keeps_residual(self, managers):
        manager = managers["XMark1"]
        text = '//item[quantity = 5 and payment = "Cash"]'
        node = self._verify_node(manager, text)
        # The uncovered string-inequality conjunct must be re-checked.
        predicate = node.predicate
        assert all(part in predicate.children for part in node.residual)
        assert query(manager, text) == query(
            manager, text, use_indexes=False
        )


class TestContainsCache:
    def test_cache_hits_and_epoch_invalidation(self):
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load(
            "d",
            "<r><a>hay needle stack</a><b>plain</b>"
            "<c x='needle'>t</c></r>",
        )
        first = sorted(manager.lookup_contains("needle"))
        hits_before = manager.metrics.counter(
            "query.text_lookup.cache_hits"
        ).value
        assert sorted(manager.lookup_contains("needle")) == first
        assert (
            manager.metrics.counter("query.text_lookup.cache_hits").value
            == hits_before + 1
        )
        # A text update bumps the epoch: the cache entry must die.
        victim = first[0]
        manager.update_texts([(victim, "gone")])
        stale = sorted(manager.lookup_contains("needle"))
        assert victim not in stale
        assert len(stale) == len(first) - 1

    def test_regex_cache_matches_scalar(self):
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load("d", "<r><a>abc123</a><b>xyz</b><c>12</c></r>")
        expected = sorted(manager.lookup_regex(r"\d{2,}"))
        assert sorted(manager.lookup_regex(r"\d{2,}")) == expected


class TestLazyNidMap:
    def test_rebuilds_coalesce(self):
        manager = IndexManager(string=True, typed=("double",))
        manager.load("d", "<r><a>1</a><b>2</b><c>3</c></r>")
        doc = manager.store.document("d")
        rebuilds = doc.nid_map_rebuilds
        for _ in range(5):
            doc.rebuild_nid_map()  # marks dirty, does no work
        assert doc.nid_map_rebuilds == rebuilds
        doc.pre_of(doc.nid[1])  # first consumer pays one rebuild
        assert doc.nid_map_rebuilds == rebuilds + 1
        doc.pre_of(doc.nid[2])
        assert doc.nid_map_rebuilds == rebuilds + 1

    def test_columns_never_rebuild_the_dict(self):
        """The column snapshot maps nids through its own runs, so
        projecting it after a splice or a reopen (both leave the dict
        dirty) rebuilds nothing; ``pre_of`` still pays its one rebuild
        when asked."""
        manager = IndexManager(string=True, typed=("double",))
        manager.load("d", "<r><a>1</a><b>2</b><c>3</c></r>")
        doc = manager.store.document("d")
        doc.rebuild_nid_map()
        rebuilds = doc.nid_map_rebuilds
        doc.columns()
        assert doc.nid_map_rebuilds == rebuilds
        manager.insert_xml(doc.nid[1], "<d>4</d>", before_nid=doc.nid[2])
        rebuilds = doc.nid_map_rebuilds
        cols = doc.columns()
        assert doc.nid_map_rebuilds == rebuilds
        assert [doc.pre_of(nid) for nid in doc.nid] == list(range(len(doc)))
        assert cols.pres_of_nids(cols.nid).tolist() == list(range(len(doc)))
        reopened = document_from_bytes("d", document_bytes(doc))
        reopened.columns()
        assert reopened.nid_map_rebuilds == 0
        assert reopened.pre_of(doc.nid[3]) == 3
        assert reopened.nid_map_rebuilds == 1
