"""Client-side read fan-out over a primary and its followers.

:class:`ReplicaSet` is the deployment shape the replication tier
exists for: one writable primary, N followers serving snapshot-
isolated reads.  Reads round-robin across the follower pool (the
primary joins the pool only when it is the sole member); updates
always go to the primary.  A follower that fails a read is retried on
the next member and quarantined for the rest of this process's
rotation — crude but honest fail-away, measured by
``repro.bench.repl``.

Reads against followers are *eventually consistent*: a follower
answers at its last applied epoch, which trails the primary by the
replication lag.  Sessions that need read-your-writes pin the primary
(``primary_reads=True``) instead.
"""

from __future__ import annotations

import itertools
import threading

from ..client import Client, ClientError

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """Route queries over ``[primary] + followers`` client connections.

    Args:
        primary: ``(host, port)`` of the writable primary.
        followers: Addresses of follower servers (may be empty — the
            set then degenerates to a plain primary connection).
        primary_reads: Route reads to the primary too (read-your-writes
            at the cost of scale-out).
    """

    def __init__(self, primary: tuple[str, int],
                 followers: list[tuple[str, int]] = (),
                 primary_reads: bool = False):
        self.primary_addr = tuple(primary)
        self.follower_addrs = [tuple(addr) for addr in followers]
        self._primary = Client(*self.primary_addr)
        self._followers = [Client(*addr) for addr in self.follower_addrs]
        self._dead: set[int] = set()
        self._lock = threading.Lock()
        readers = self._followers if (self._followers
                                      and not primary_reads) else []
        self._rotation = itertools.cycle(range(len(readers))) \
            if readers else None
        self._readers = readers

    # -- reads -----------------------------------------------------------

    def _read_client(self) -> Client:
        if self._rotation is None:
            return self._primary
        with self._lock:
            for _ in range(len(self._readers)):
                idx = next(self._rotation)
                if idx not in self._dead:
                    return self._readers[idx]
        return self._primary  # every follower quarantined

    def _quarantine(self, client: Client) -> None:
        with self._lock:
            for idx, member in enumerate(self._readers):
                if member is client:
                    self._dead.add(idx)

    def _read(self, fn):
        attempts = 1 + len(self._readers)
        last: Exception | None = None
        for _ in range(attempts):
            client = self._read_client()
            try:
                return fn(client)
            except (ConnectionError, OSError, ClientError) as exc:
                if isinstance(exc, ClientError) and exc.code not in (
                    "disconnected", "shutting_down",
                ):
                    raise  # a real answer (bad query, missing epoch...)
                last = exc
                if client is not self._primary:
                    self._quarantine(client)
                    continue
                raise
        raise last  # pragma: no cover - loop always returns or raises

    def query(self, xpath: str, **kwargs) -> list[int]:
        return self._read(lambda c: c.query(xpath, **kwargs))

    def query_rows(self, xpath: str,
                   **kwargs) -> list[tuple[str, int, int]]:
        """``(document, pre, nid)`` tuples from one read member
        (:meth:`Client.query_rows <repro.client.Client.query_rows>`)."""
        return self._read(lambda c: c.query_rows(xpath, **kwargs))

    def epochs(self) -> dict:
        return self._read(lambda c: c.epochs())

    # -- writes (primary only) -------------------------------------------

    def update_text(self, nid: int, text: str, **kwargs) -> dict:
        return self._primary.update_text(nid, text, **kwargs)

    def load(self, name: str, xml: str) -> dict:
        return self._primary.call("load", name=name, xml=xml)

    def checkpoint(self) -> dict:
        return self._primary.checkpoint()

    def close(self) -> None:
        for client in [self._primary, *self._followers]:
            try:
                client.close()
            except OSError:
                pass
