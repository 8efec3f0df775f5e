"""Structured plans: operator trees, cost annotations, explain reports."""

from repro.core import IndexManager
from repro.query import (
    AncestorWalk,
    FullScan,
    IndexLookup,
    StructuralVerify,
    Union,
    build_plan,
    explain,
    parse_query,
    query,
)

XML = (
    "<people>"
    + "".join(
        f"<p><age>{i % 50}</age><weight>{i}</weight></p>" for i in range(100)
    )
    + "</people>"
)


def _manager():
    m = IndexManager(typed=("double",))
    m.load("people", XML)
    return m


class TestBuildPlan:
    def test_index_plan_shape(self):
        m = _manager()
        doc = m.store.document("people")
        plan = build_plan(m, doc, parse_query("//p[.//age = 7]").path)
        assert isinstance(plan, StructuralVerify)
        walk = plan.children[0]
        assert isinstance(walk, AncestorWalk)
        lookup = walk.children[0]
        assert isinstance(lookup, IndexLookup)
        assert lookup.kind == "double"
        assert lookup.estimated_rows > 0
        # Pre-order numbering is stable and complete.
        assert [node.op_id for node in plan.walk()] == [0, 1, 2]

    def test_or_produces_union(self):
        m = _manager()
        doc = m.store.document("people")
        plan = build_plan(
            m, doc, parse_query("//p[.//age = 7 or .//age = 9]").path
        )
        assert isinstance(plan, StructuralVerify)
        assert isinstance(plan.children[0], Union)
        assert len(plan.children[0].children) == 2

    def test_forced_scan(self):
        m = _manager()
        doc = m.store.document("people")
        plan = build_plan(
            m, doc, parse_query("//p[.//age = 7]").path, use_indexes=False
        )
        assert isinstance(plan, FullScan)
        assert plan.reason == "forced"
        assert plan.estimated_rows == float(len(doc))

    def test_auto_scan_reason_mentions_cost(self):
        m = _manager()
        doc = m.store.document("people")
        plan = build_plan(
            m, doc, parse_query("//p[.//age >= 0]").path, use_indexes="auto"
        )
        assert isinstance(plan, FullScan)
        assert plan.reason.startswith("cost")

    def test_auto_prices_the_store_against_the_store(self):
        """The index estimate counts every document's entries, so
        ``"auto"`` weighs it against every document's nodes: a small
        document without a single match is not scanned because a large
        one has twenty.  The query runs that one index plan once, over
        both documents."""
        m = _manager()
        small = m.load("small", "<people><p><age>1</age></p></people>")
        path = parse_query("//p[.//weight < 20]").path
        assert isinstance(build_plan(m, small, path, "auto"), StructuralVerify)
        assert len(query(m, "//p[.//weight < 20]", use_indexes="auto")) == 20
        counters = m.metrics.snapshot()["counters"]
        assert counters["query.plans.index"] == 1
        assert counters.get("query.plans.scan", 0) == 0

    def test_positional_predicate_scans(self):
        m = _manager()
        doc = m.store.document("people")
        plan = build_plan(m, doc, parse_query("//p[1]").path)
        assert isinstance(plan, FullScan)
        assert plan.reason == "positional predicate"


class TestExplain:
    def test_summary_is_string_compatible(self):
        m = _manager()
        result = explain(m, "//p[.//age = 7]")
        assert result == "index(double)"
        assert result.startswith("index")
        assert isinstance(result, str)

    def test_reports_carry_plan_trees(self):
        m = _manager()
        result = explain(m, "//p[.//age = 7]")
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.document == "people"
        assert "IndexLookup[double]" in report.render()
        assert "est rows" in report.render()

    def test_execute_attaches_actuals(self):
        m = _manager()
        result = explain(m, "//p[.//age = 7]", execute=True)
        report = result.reports[0]
        assert report.actuals is not None
        root_actual = report.actuals[0]
        assert root_actual["rows"] == len(query(m, "//p[.//age = 7]"))
        assert root_actual["seconds"] >= 0.0
        assert "actual rows" in report.render()

    def test_to_dict_round_trips_to_json(self):
        import json

        m = _manager()
        result = explain(m, "//p[.//age = 7]", execute=True)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["summary"] == "index(double)"
        assert data["documents"][0]["plan"]["op"] == "StructuralVerify"

    def test_no_documents(self):
        m = IndexManager(typed=("double",))
        result = explain(m, "//p[.//age = 7]")
        assert result.reports == []
        assert "no documents" in result.tree()
