"""Forked worker processes: spawn, wait with a deadline, classify, kill.

The only code in the package that forks.  Two callers sit on it:

- :func:`repro.perf.runner.run_tasks` forks one short-lived child per
  attempt and keeps its own scheduling, backoff, retry and quarantine;
- :class:`repro.serve.pool.WorkerPool` keeps persistent, digest-sharded
  children, one asyncio lock each, and respawns a shard that failed.

Fork, not spawn: a child inherits the parent's already-imported
compiler (both callers preload what their children run before they
fork), and its entry point -- including a test closure -- needs no
pickling.  Only messages cross the pipe.

Waiting blocks in :func:`multiprocessing.connection.wait` on the pipe
*and* the process sentinel, so a reply, a death and a deadline each
wake the parent at once.  A reply that is already in the pipe wins over
the child's exit: a child that answered and then died still answered.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as _wait_handles
from typing import Any, Callable, List, Optional, Sequence, Tuple

_ctx = multiprocessing.get_context("fork")


def _remaining(deadline: Optional[float]) -> Optional[float]:
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


class Worker:
    """One forked child and the parent's end of its duplex pipe.

    ``target`` runs in the child as ``target(conn, *args, **kwargs)``,
    where ``conn`` is the child's end of the pipe.
    """

    __slots__ = ("process", "conn")

    def __init__(self, target: Callable[..., None], *args: Any, **kwargs: Any):
        parent_conn, child_conn = _ctx.Pipe(duplex=True)
        self.process = _ctx.Process(
            target=target, args=(child_conn, *args), kwargs=kwargs, daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def wait(self, deadline: Optional[float]) -> Tuple[str, Any]:
        """The child's next reply, or why there is none.

        ``deadline`` is a :func:`time.monotonic` time (``None``: no
        limit).  Returns ``("ok", message)``, ``("crash", exitcode)`` when
        the child died or closed its pipe without replying, or
        ``("timeout", None)``.
        """
        ready = _wait_handles([self.conn, self.process.sentinel], _remaining(deadline))
        if self.conn.poll():
            try:
                return "ok", self.conn.recv()
            except (EOFError, OSError):
                pass
        elif not ready:
            return "timeout", None
        self.process.join(_remaining(deadline))
        return "crash", self.process.exitcode

    def kill(self) -> None:
        """SIGKILL the child if it still runs, reap it, close the pipe.

        SIGKILL, not SIGTERM: a child that ignores or is stuck past
        termination signals must not hold its caller.
        """
        self.conn.close()
        if self.process.is_alive():
            self.process.kill()
        self.process.join()


def wait_any(workers: Sequence[Worker], deadline: Optional[float]) -> List[Worker]:
    """Block until one of ``workers`` replied or exited, or ``deadline``.

    Returns the workers that are ready (empty at the deadline); each
    one's :meth:`Worker.wait` then returns without blocking.
    """
    owners = {}
    for worker in workers:
        owners[worker.conn] = worker
        owners[worker.process.sentinel] = worker
    ready = _wait_handles(list(owners), _remaining(deadline))
    return list(dict.fromkeys(owners[handle] for handle in ready))
