"""Shared helpers for the network serving tests."""

import io

import pytest

from repro.database import Database
from repro.server import ServerThread

from ..concurrent.harness import fixture_xml


def open_db(tmp_path, **kwargs) -> Database:
    kwargs.setdefault("typed", ("double",))
    kwargs.setdefault("checkpoint_every", 0)
    kwargs.setdefault("concurrent", True)
    return Database(str(tmp_path / "db"), **kwargs)


class ByteStream:
    """A socket stand-in that replays ``data`` to
    :func:`repro.wire.read_frame`, then reads end-of-stream."""

    def __init__(self, data: bytes):
        self.recv = io.BytesIO(data).read


class Served:
    """A database behind a live server thread, with teardown."""

    def __init__(self, tmp_path, db_kwargs=None, server_kwargs=None):
        self.db = open_db(tmp_path, **(db_kwargs or {}))
        self.doc = self.db.load("people", fixture_xml())
        self.thread = ServerThread(self.db, **(server_kwargs or {}))
        self.host, self.port = self.thread.start()
        self._stopped = False

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.thread.stop()

    @property
    def server(self):
        return self.thread.server


@pytest.fixture
def served(tmp_path):
    box = Served(tmp_path)
    yield box
    box.stop()
