"""Spans recorded from the benchmark's own files, and op replay.

``src/`` has no spans yet, so the traced pass records a span around
each public call and then *replays* the operation stage by stage against
an in-process engine in the same state: request framing, the engine
call, the operator actuals of the executed plan, response framing.  The
client-seen time minus the replayed stages is what the serving stack
added and no stage explains (``server.unattributed_us``).
Spans stay in memory and are written with the self-time table when the
run ends; end-to-end numbers never come from a traced pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro import wire
from repro.query import build_plan, execute_plan, parse_query
from repro.storage.wal import TEXT_UPDATE, WalRecord

__all__ = ["Tracer", "self_times", "traced_read", "traced_update",
           "operator_actuals"]


class Tracer:
    """In-memory span recorder: ``{id, name, start, end, parent, trace}``
    plus free-form attributes; times are ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._traces = 0

    def new_trace(self) -> int:
        self._traces += 1
        return self._traces

    @contextmanager
    def span(self, name: str, parent: dict | None = None,
             trace: int | None = None, **attrs):
        record = {
            "id": len(self.spans), "name": name,
            "parent": None if parent is None else parent["id"],
            "trace": trace if parent is None else parent["trace"],
            "start": time.perf_counter(), "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self seconds, where a span's
    self time is its duration minus the part its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = table.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - min(duration, covered.get(span["id"], 0.0))
    return table


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def operator_actuals(db, text: str, document: str | None = None) -> dict:
    """Operator actuals of the plan a read really runs: seconds summed
    over documents, result rows, and rows the leaf operators produced
    (the work examined to get them).

    ``Database.explain(execute=True)`` prices with ``use_indexes="auto"``
    and scans where a read (``use_indexes=True``) probes the index, so
    the same public planner and executor calls are made here with the
    read's own mode.
    """
    manager = db.manager
    path = parse_query(text).path
    names = [document] if document else list(manager.store.documents)
    seconds = 0.0
    rows = examined = 0
    with db.read_view():
        for name in names:
            doc = manager.store.document(name)
            plan = build_plan(manager, doc, path, True)
            actuals: dict[int, dict] = {}
            execute_plan(manager, doc, plan, actuals)

            def leaves(node) -> int:
                if not node.children:
                    return actuals[node.op_id]["rows"]
                return sum(leaves(child) for child in node.children)

            seconds += actuals[plan.op_id]["seconds"]
            rows += actuals[plan.op_id]["rows"]
            examined += leaves(plan)
    return {"seconds": seconds, "rows": rows, "examined": examined}


def traced_read(tracer: Tracer, target, replica, over_wire: bool, query,
                explain: bool) -> tuple[float, object]:
    """One real read inside a span, then its replay on ``replica`` (an
    in-process engine in the same state).  Returns the client-seen
    seconds and the rows."""
    with tracer.span("op.read", trace=tracer.new_trace(), cls=query.cls,
                     text=query.text) as op:
        with tracer.span("client.query_rows", op) as seen:
            rows = target.query_rows(query.text, query.document)
        with tracer.span("replay", op) as replay:
            stages = 0.0
            request = {"id": 1, "op": "query", "xpath": query.text,
                       "use_indexes": True, "rows": True}
            if over_wire:
                stages += _replay_frame(tracer, replay, "request", request)
            with tracer.span("core.concurrency.read_view", replay):
                with replica.read_view():
                    pass
            # First, so it meets the plan cache and statistics in the
            # state the real call met them (an update just before makes
            # both miss).
            with tracer.span("shard.engine.query_rows", replay) as engine:
                answer = replica.query_rows(query.text, query.document)
            stages += _duration(engine)
            with tracer.span("shard.engine.query", replay):
                replica.query(query.text, query.document)
            if explain:
                with tracer.span("query.operator_actuals", replay) as plan:
                    plan["actuals"] = operator_actuals(
                        replica, query.text, query.document)
            if over_wire:
                with tracer.span("server.rows_to_lists", replay) as lists:
                    response = wire.ok_response(
                        1, {"rows": [list(row) for row in answer]})
                stages += _duration(lists)
                stages += _replay_frame(tracer, replay, "response", response)
            op["client_seen_s"] = _duration(seen)
            op["replayed_s"] = stages
    return _duration(seen), rows


def _replay_frame(tracer: Tracer, parent: dict, which: str,
                  message: dict) -> float:
    with tracer.span(f"wire.encode_{which}", parent) as encode:
        frame = wire.encode_frame(message)
    with tracer.span(f"wire.decode_{which}", parent) as decode:
        json.loads(frame[4:])
    return _duration(encode) + _duration(decode)


def traced_update(tracer: Tracer, target, replica, over_wire: bool,
                  scratch_wal, nid: int, text: str) -> float:
    """One real durable update inside a span, then its replay: index
    maintenance without the log on ``replica``, and one fsynced append
    of the same record to ``scratch_wal``."""
    with tracer.span("op.update", trace=tracer.new_trace(), nid=nid) as op:
        with tracer.span("client.update_text", op) as seen:
            target.update_text(nid, text)
        with tracer.span("replay", op) as replay:
            stages = 0.0
            if over_wire:
                stages += _replay_frame(
                    tracer, replay, "request",
                    {"id": 1, "op": "update", "action": "update_text",
                     "nid": nid, "text": text})
            with tracer.span("core.manager.update_text", replay) as index:
                index["recomputed"] = replica.manager.update_text(nid, text)
            with tracer.span("storage.wal.append_fsync", replay) as log:
                scratch_wal.append(WalRecord(TEXT_UPDATE, nid, text=text))
            stages += _duration(index) + _duration(log)
            if over_wire:
                stages += _replay_frame(
                    tracer, replay, "response",
                    wire.ok_response(1, {"recomputed": index["recomputed"]}))
            op["client_seen_s"] = _duration(seen)
            op["replayed_s"] = stages
    return _duration(seen)
