"""The two ways a workload reaches the engine, and the timed set-up.

:class:`Embedded` calls :class:`repro.database.Database` in the bench
process; :class:`Wire` spawns the server child (same core) and talks to it
through :class:`repro.client.Client` over one loopback connection.
Both expose the same handful of calls, so one pass runner drives either.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from perf import ROOT, SRC, measure

from repro.client import Client
from repro.database import Database

__all__ = ["FLUSH_POLICY", "PROBE", "Embedded", "Wire", "SetupTimes",
           "build_database", "set_up", "spawn_child", "dir_bytes",
           "as_tuples"]

#: The flush policy every database of the benchmark is opened with:
#: an update is acknowledged only after its WAL record is fsynced.
FLUSH_POLICY = dict(sync="fsync", concurrent=True, group_commit=True,
                    group_batch_wait_ms=0)

#: The query whose first correct answer ends a set-up.
PROBE = '//item[@featured = "y"]'


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((ROOT, SRC))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_child(role: str, path: str, **popen) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "perf.children", role, path],
        cwd=ROOT, env=child_env(), text=True, **popen)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, entry))
               for entry in os.listdir(path))


class Embedded:
    """In-process engine."""

    def __init__(self, path: str, db: Database | None = None):
        self.path = path
        self.db = db

    def start(self) -> None:
        self.db = Database(self.path, **FLUSH_POLICY)

    def query_rows(self, text, document=None, use_indexes=True):
        return self.db.query_rows(text, document, use_indexes)

    def query(self, text: str) -> list[int]:
        return self.db.query(text)

    def update_text(self, nid: int, text: str) -> None:
        self.db.update_text(nid, text)

    def metrics(self) -> dict:
        return self.db.metrics()

    def child_pids(self) -> tuple[int, ...]:
        return ()

    def engine_pid(self) -> int:
        return os.getpid()

    def stop(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


class Wire:
    """Server child + one blocking client connection."""

    def __init__(self, path: str):
        self.path = path
        self.proc: subprocess.Popen | None = None
        self.client: Client | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> None:
        self.proc = spawn_child("serve", self.path, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        match = re.search(r" on ([\d.]+):(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        self.client = Client(*self.address)
        try:
            # Threads the server starts later inherit the mask.
            measure.require_same_core(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def connect(self) -> Client:
        """A further connection to the same server."""
        return Client(*self.address)

    def query_rows(self, text, document=None, use_indexes=True):
        return self.client.query_rows(text, document, use_indexes)

    def query(self, text: str) -> list[int]:
        return self.client.query(text)

    def update_text(self, nid: int, text: str) -> None:
        self.client.update_text(nid, text)

    def metrics(self) -> dict:
        return self.client.metrics()

    def child_pids(self) -> tuple[int, ...]:
        return (self.proc.pid,)

    def engine_pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM drains the server (checkpoint + close); always waits
        for the child to be gone."""
        if self.client is not None:
            self.client.close()
            self.client = None
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            proc.stdout.close()


@dataclass
class SetupTimes:
    """One fresh set-up, phase by phase (seconds); ``load_s`` has one
    entry per document, in corpus order."""

    generate_s: float
    load_s: dict[str, float]
    checkpoint_s: float
    close_s: float
    reopen_s: float
    nodes: int
    xml_bytes: int
    disk_bytes: int

    def phases(self) -> dict[str, float]:
        """Every timed phase by name; they add up to the set-up."""
        return {"generate": self.generate_s,
                **{f"load:{name}": t for name, t in self.load_s.items()},
                "checkpoint": self.checkpoint_s, "close": self.close_s,
                "reopen": self.reopen_s}

    def row(self) -> dict:
        """The set-up as a row of the result file."""
        return {"setup_s": sum(self.phases().values()),
                "phases": self.phases(), "nodes": self.nodes,
                "disk_bytes": self.disk_bytes, "xml_bytes": self.xml_bytes}


def build_database(path: str, make_corpus) -> SetupTimes:
    """generate -> load -> checkpoint -> close, each phase timed; the
    directory holds a checkpointed database afterwards."""
    shutil.rmtree(path, ignore_errors=True)
    clock = time.perf_counter
    start = clock()
    corpus = make_corpus()
    generate_s = clock() - start
    db = Database(path, **FLUSH_POLICY)
    try:
        nodes = 0
        load_s = {}
        for name, xml in corpus.items():
            start = clock()
            nodes += len(db.load(name, xml))
            load_s[name] = clock() - start
        start = clock()
        db.checkpoint()
        checkpoint_s = clock() - start
    finally:
        start = clock()
        db.close()
        close_s = clock() - start
    return SetupTimes(
        generate_s=generate_s, load_s=load_s, checkpoint_s=checkpoint_s,
        close_s=close_s, reopen_s=0.0, nodes=nodes,
        xml_bytes=sum(len(xml.encode("utf-8")) for xml in corpus.values()),
        disk_bytes=dir_bytes(path),
    )


def set_up(target, make_corpus) -> tuple[SetupTimes, list]:
    """One fresh set-up of ``target``: build the database, reopen it
    (spawning and connecting when it is a :class:`Wire`) and take the
    first answer to :data:`PROBE`; the caller checks that answer."""
    times = build_database(target.path, make_corpus)
    start = time.perf_counter()
    target.start()
    answer = target.query_rows(PROBE)
    times.reopen_s = time.perf_counter() - start
    return times, answer


def as_tuples(rows) -> list[tuple]:
    """Rows as tuples, whichever transport produced them."""
    return [tuple(row) for row in rows]
