"""One shard core behind the wire protocol, in its own OS process.

``python -m repro.shard.worker --path DIR`` opens (or recovers) the
shard directory as a :class:`~repro.shard.engine.ShardEngine`
and serves it with :func:`repro.server.serve`, as ``repro-xml serve``
does — the shard IPC *is* the public wire protocol, so every server
guarantee (snapshot-pinned reads, admission control, graceful drain,
acked ⇒ durable) holds per shard for free.  On successful bind the
worker prints ``serve``'s one line, ``serving PATH on HOST:PORT
(...)``, to stdout (the coordinator's readiness signal + address) and
serves until SIGTERM.

Fault testing: ``--kill-at POINT[:OCCURRENCE]`` installs a process-wide
:class:`~repro.storage.faults.FaultInjector` that calls ``os._exit`` at
the chosen crashpoint — a *real* process death mid-commit, not an
exception Python could unwind; ``--kill-keep-bytes N`` additionally
tears the write at a write-shaped point, leaving N bytes of the frame
on disk for recovery to reject.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import BinaryIO

from ..server import serve
from ..storage import faults
from .engine import ShardEngine

__all__ = ["KillSwitch", "main"]


class KillSwitch(faults.FaultInjector):
    """A fault injector that dies for real.

    :class:`~repro.storage.faults.InjectedCrash` models a power cut
    inside one thread; for shard-kill tests the whole *process* must
    vanish mid-commit, so the armed occurrence calls ``os._exit`` —
    no atexit hooks, no flushing, no graceful anything.  A torn-write
    plan still writes its ``keep_bytes`` prefix first, so the on-disk
    state is exactly what a mid-write power cut leaves.
    """

    EXIT_CODE = 43

    def on_crashpoint(self, point: str) -> None:
        count = self._register(point)
        if self._should_crash(point, count):
            os._exit(self.EXIT_CODE)

    def on_write(self, fh: BinaryIO, data: bytes, point: str) -> None:
        count = self._register(point)
        if self._should_crash(point, count):
            keep = self.crash.keep_bytes
            if keep:
                fh.write(data[:keep])
                fh.flush()
                os.fsync(fh.fileno())
            os._exit(self.EXIT_CODE)
        fh.write(data)


def _parse_kill(spec: str) -> tuple[str, int]:
    point, _, occurrence = spec.partition(":")
    return point, int(occurrence) if occurrence else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="serve one shard directory over the wire protocol",
    )
    parser.add_argument("--path", required=True, help="shard directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (default)")
    parser.add_argument("--shard-id", type=int, default=None)
    parser.add_argument("--sync", default="flush",
                        choices=("none", "flush", "fsync"))
    parser.add_argument("--checkpoint-every", type=int, default=10_000)
    parser.add_argument("--retain-epochs", type=int, default=0,
                        help="time-travel window for as_of queries "
                             "(docs/replication.md)")
    parser.add_argument("--kill-at", default=None, metavar="POINT[:OCC]",
                        help="os._exit at the OCCth hit of crashpoint POINT")
    parser.add_argument("--kill-keep-bytes", type=int, default=None,
                        help="bytes of the fatal write to leave on disk")
    args = parser.parse_args(argv)

    if args.kill_at is not None:
        point, occurrence = _parse_kill(args.kill_at)
        faults._INJECTOR = KillSwitch(
            faults.CrashPlan(point, occurrence,
                             keep_bytes=args.kill_keep_bytes)
        )

    engine = ShardEngine(
        args.path,
        sync=args.sync,
        checkpoint_every=args.checkpoint_every,
        shard_id=args.shard_id,
        retain_epochs=args.retain_epochs,
    )

    asyncio.run(serve(engine, args.host, args.port))
    return 0


if __name__ == "__main__":
    sys.exit(main())
