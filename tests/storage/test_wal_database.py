"""Tests for the WAL and the durable Database facade."""

import os

import pytest

from repro.database import Database
from repro.storage.wal import (
    DELETE_ATTRIBUTE,
    DELETE_SUBTREE,
    INSERT_ATTRIBUTE,
    TEXT_UPDATE,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
    replay_records,
)
from repro.xmldb import ELEM, TEXT

PERSON = (
    "<person>"
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<age>42</age>"
    "</person>"
)


def text_nid(db, content):
    doc = db.store.document("person")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


def elem_nid(db, name):
    doc = db.store.document("person")
    for pre in range(len(doc)):
        if doc.kind[pre] == ELEM and doc.name_of(pre) == name:
            return doc.nid[pre]
    raise AssertionError(name)


class TestWalFormat:
    def test_record_roundtrip(self):
        record = WalRecord(TEXT_UPDATE, 42, text="héllo", name="n", extra=7)
        decoded, offset = decode_record(encode_record(record), 0)
        assert decoded == record

    def test_append_and_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(WalRecord(TEXT_UPDATE, 1, text="a"))
        log.append(WalRecord(DELETE_SUBTREE, 2))
        log.close()
        records = list(replay_records(path))
        assert [r.kind for r in records] == [TEXT_UPDATE, DELETE_SUBTREE]

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(WalRecord(TEXT_UPDATE, 1, text="a"))
        log.truncate()
        log.close()
        assert list(replay_records(path)) == []

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(WalRecord(TEXT_UPDATE, 1, text="complete"))
        log.close()
        with open(path, "ab") as fh:
            fh.write(encode_record(WalRecord(TEXT_UPDATE, 2, text="torn"))[:-3])
        records = list(replay_records(path))
        assert len(records) == 1
        assert records[0].text == "complete"

    def test_missing_file(self, tmp_path):
        assert list(replay_records(str(tmp_path / "absent.log"))) == []

    def test_bad_sync_mode(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "w"), sync="wrong")

    def test_close_is_idempotent(self, tmp_path):
        """Regression: the drain path can close an already-closed log
        (e.g. after a failed checkpoint released it); the second close
        used to raise ``ValueError: I/O operation on closed file``."""
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        log.append(WalRecord(TEXT_UPDATE, 1, text="a"))
        log.close()
        log.close()

    def test_append_many_forwards_exception_to_timer(self, tmp_path):
        """Regression: a crashed batch write used to be recorded as a
        successful append timing — ``finally`` called
        ``timer.__exit__(None, None, None)`` regardless of the raise."""
        from repro.obs.metrics import MetricsRegistry
        from repro.storage import faults

        seen: list[tuple] = []

        class RecordingTimer:
            def __init__(self, inner):
                self._inner = inner

            def time(self):
                inner_cm = self._inner.time()
                record = seen

                class _CM:
                    def __enter__(self):
                        inner_cm.__enter__()
                        return self

                    def __exit__(self, *exc):
                        record.append(exc)
                        return inner_cm.__exit__(*exc)

                return _CM()

        metrics = MetricsRegistry()
        real_timer = metrics.timer("wal.append")
        shim = RecordingTimer(real_timer)
        metrics.timer = lambda name: (
            shim if name == "wal.append" else real_timer
        )
        log = WriteAheadLog(str(tmp_path / "wal.log"), metrics=metrics)
        injector = faults.FaultInjector(faults.CrashPlan("wal.append"))
        with faults.injected(injector):
            with pytest.raises(faults.InjectedCrash):
                log.append_many([WalRecord(TEXT_UPDATE, 1, text="a")])
        assert len(seen) == 1
        exc_type, exc_value, _tb = seen[0]
        assert exc_type is faults.InjectedCrash, (
            "timer.__exit__ must receive the real exception triple"
        )
        assert isinstance(exc_value, faults.InjectedCrash)

    def test_position_and_tail_frames_ship_complete_frames(self, tmp_path):
        from repro.storage.wal import (
            WAL_HEADER_SIZE,
            decode_frames,
            tail_frames,
        )

        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, epoch=3)
        assert log.position() == WAL_HEADER_SIZE
        log.append(WalRecord(TEXT_UPDATE, 1, text="a"))
        log.append(WalRecord(TEXT_UPDATE, 2, text="b"))
        blob, cursor = tail_frames(path, WAL_HEADER_SIZE)
        assert cursor == log.position()
        records = decode_frames(blob)
        assert [(r.nid, r.text, r.epoch) for r in records] == [
            (1, "a", 3), (2, "b", 3),
        ]
        # A torn (half-visible) trailing frame is trimmed, not shipped.
        with open(path, "ab") as fh:
            from repro.storage.wal import encode_frame
            fh.write(encode_frame(
                WalRecord(TEXT_UPDATE, 9, text="torn"), 3)[:-2])
        blob2, cursor2 = tail_frames(path, cursor)
        assert blob2 == b"" and cursor2 == cursor
        log.close()

    def test_decode_frames_rejects_damaged_blob(self, tmp_path):
        from repro.storage.format import FormatError
        from repro.storage.wal import decode_frames, encode_frame

        frame = bytearray(encode_frame(WalRecord(TEXT_UPDATE, 1, "x"), 0))
        frame[-1] ^= 0xFF
        with pytest.raises(FormatError, match="damaged"):
            decode_frames(bytes(frame))
        with pytest.raises(FormatError, match="damaged"):
            decode_frames(bytes(frame[:-3]))

    def test_truncate_records_last_incarnation(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, epoch=1)
        log.append(WalRecord(TEXT_UPDATE, 1, text="a"))
        final = log.position()
        log.truncate(epoch=2)
        assert log.last_truncate == (1, final)
        assert log.epoch == 2
        log.close()


class TestDatabase:
    def test_create_load_query(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            db.load("person", PERSON)
            assert db.query("//person[age = 42]")
            assert db.explain("//person[age = 42]") == "index(double)"

    def test_line_ends_read_alike_from_string_and_file(self, tmp_path):
        xml = '<r><a k="1\r\n2">x\r\ny</a></r>'
        path = tmp_path / "crlf.xml"
        path.write_bytes(xml.encode("utf-8"))
        with Database(str(tmp_path / "db")) as db:
            db.load("inline", xml)
            with open(path, encoding="utf-8") as fh:
                db.load("file", fh.read())
            for query in ('//a[. = "x\ny"]', '//a[@k = "1 2"]'):
                for use_indexes in (True, False):
                    pres = [
                        [pre for _, pre, _ in db.query_rows(
                            query, document=name, use_indexes=use_indexes
                        )]
                        for name in ("inline", "file")
                    ]
                    assert pres[0] == pres[1] and len(pres[0]) == 1, query

    def test_reopen_without_crash(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            db.load("person", PERSON)
            db.update_text(text_nid(db, "Dent"), "Prefect")
        with Database(path) as db:
            assert db.recovered_records == 0  # clean close checkpointed
            assert list(db.lookup_string("ArthurPrefect"))

    def test_crash_recovery_replays_wal(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.load("person", PERSON)
        db.update_text(text_nid(db, "Dent"), "Prefect")
        db.insert_xml(elem_nid(db, "person"), "<iq>160</iq>")
        # Simulate a crash: no close(), no checkpoint.
        del db
        recovered = Database(path)
        assert recovered.recovered_records == 2
        assert list(recovered.lookup_string("ArthurPrefect"))
        assert list(recovered.lookup_typed_equal("double", 160.0))
        recovered.manager.check_consistency()
        recovered.close()

    def test_structural_replay_recreates_nids(self, tmp_path):
        """A logged structural insert must replay to the same nids so
        later log records targeting them stay valid."""
        path = str(tmp_path / "db")
        db = Database(path)
        db.load("person", PERSON)
        change = db.insert_xml(elem_nid(db, "person"), "<iq>160</iq>")
        iq_text = next(
            nid
            for nid in change.added_nids
            if db.store.node(nid)[0].kind[db.store.node(nid)[1]] == TEXT
        )
        db.update_text(iq_text, "170")  # targets a replayed nid
        del db
        recovered = Database(path)
        assert recovered.recovered_records == 2
        assert list(recovered.lookup_typed_equal("double", 170.0))
        assert not list(recovered.lookup_typed_equal("double", 160.0))
        recovered.close()

    def test_exception_preserves_wal(self, tmp_path):
        path = str(tmp_path / "db")
        with pytest.raises(RuntimeError):
            with Database(path) as db:
                db.load("person", PERSON)
                db.update_text(text_nid(db, "Dent"), "Prefect")
                raise RuntimeError("boom")
        recovered = Database(path)
        assert recovered.recovered_records == 1
        assert list(recovered.lookup_string("ArthurPrefect"))
        recovered.close()

    def test_auto_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=3)
        db.load("person", PERSON)
        nid = text_nid(db, "Dent")
        for i in range(4):
            db.update_text(nid, f"v{i}")
        # 3 updates triggered a checkpoint; at most 1 record pending.
        del db
        recovered = Database(path)
        assert recovered.recovered_records <= 1
        doc = recovered.store.document("person")
        assert doc.string_value(doc.pre_of(nid)) == "v3"
        recovered.close()

    def test_attribute_and_rename_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.load("person", PERSON)
        change = db.insert_attribute(elem_nid(db, "person"), "id", "p1")
        db.rename(elem_nid(db, "age"), "years")
        db.delete_attribute(change.added_nids[0])
        del db
        recovered = Database(path)
        assert recovered.recovered_records == 3
        doc = recovered.store.document("person")
        assert "<years>" in doc.serialize()
        assert 'id="p1"' not in doc.serialize()
        recovered.manager.check_consistency()
        recovered.close()

    def test_delete_attribute_logs_dedicated_record(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.load("person", PERSON)
        change = db.insert_attribute(elem_nid(db, "person"), "id", "p1")
        db.delete_attribute(change.added_nids[0])
        records = list(replay_records(os.path.join(path, "wal.log")))
        assert [r.kind for r in records[-2:]] == [
            INSERT_ATTRIBUTE,
            DELETE_ATTRIBUTE,
        ]
        # Crash recovery replays it through the attribute-checked path.
        del db
        recovered = Database(path)
        assert recovered.recovered_records == 2
        assert 'id="p1"' not in recovered.store.document("person").serialize()
        recovered.manager.check_consistency()
        recovered.close()

    def test_legacy_delete_subtree_record_still_replays_attributes(
        self, tmp_path
    ):
        """Logs written before DELETE_ATTRIBUTE existed carry a
        DELETE_SUBTREE record for attribute deletes; they must keep
        replaying."""
        path = str(tmp_path / "db")
        db = Database(path)
        db.load("person", PERSON)
        change = db.insert_attribute(elem_nid(db, "person"), "id", "p1")
        db.checkpoint()
        attr_nid = change.added_nids[0]
        db.manager.delete_attribute(attr_nid)  # apply without logging...
        db._wal.append(WalRecord(DELETE_SUBTREE, attr_nid))  # ...legacy form
        db._wal.close()
        recovered = Database(path)
        assert recovered.recovered_records == 1
        assert 'id="p1"' not in recovered.store.document("person").serialize()
        recovered.close()

    def test_existing_config_preserved(self, tmp_path):
        path = str(tmp_path / "db")
        Database(path, typed=("double", "integer"), substring=True).close()
        reopened = Database(path)  # defaults ignored for existing db
        assert set(reopened.manager.typed_indexes) == {"double", "integer"}
        assert reopened.manager.substring_index is not None
        reopened.close()
