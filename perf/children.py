"""Child-process entry points: the server and the doomed updater.

``python -m perf.children serve <dir>`` is the ``repro-xml serve``
equivalent the wire workloads talk to: it opens the database with the
benchmark's fixed flush policy and hands it to the public
:func:`repro.server.serve` (port 0; the bound port is in the line
``serve`` prints).  SIGTERM drains it.  Both children inherit the bench
process's one-core mask.

``python -m perf.children updater <dir>`` applies the durable updates it
reads from stdin, acknowledges each on stdout with its latency, and
then waits to be ``SIGKILL``ed: it never closes the database, so the
parent reopens over a WAL tail.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

from perf.engines import FLUSH_POLICY

from repro.database import Database
from repro.server import serve


def _serve(path: str) -> None:
    db = Database(path, **FLUSH_POLICY)
    asyncio.run(serve(db, "127.0.0.1", 0))


def _updater(path: str) -> None:
    updates = json.loads(sys.stdin.readline())
    db = Database(path, **FLUSH_POLICY)
    out = sys.stdout
    for nid, text in updates:
        start = time.perf_counter()
        db.update_text(nid, text)
        elapsed = time.perf_counter() - start
        # The ack leaves only after update_text returned, i.e. after
        # the record's fsync.
        out.write(f"{nid} {elapsed!r}\n")
        out.flush()
    out.write("done\n")
    out.flush()
    while True:  # killed by the parent, never a clean exit
        time.sleep(60)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("serve", "updater"):
        print("usage: python -m perf.children serve|updater <dir>",
              file=sys.stderr)
        return 2
    (_serve if argv[0] == "serve" else _updater)(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
