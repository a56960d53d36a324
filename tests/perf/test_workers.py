"""The forked-worker layer under the suite runner and the serve pool."""

import os
import time

import pytest

from repro.perf.workers import Worker


def reply_then_exit(conn):
    conn.send("reply")
    os._exit(3)


def exit_without_reply(conn):
    os._exit(7)


def stall(conn):
    time.sleep(30)


@pytest.mark.parametrize(
    "target, expected",
    [
        (reply_then_exit, ("ok", "reply")),
        (exit_without_reply, ("crash", 7)),
        (stall, ("timeout", None)),
    ],
    ids=["reply-then-exit", "exit-without-reply", "past-deadline"],
)
def test_wait_classifies_the_child(target, expected):
    worker = Worker(target)
    try:
        # Let an exiting child finish first: a reply already in the pipe
        # must win over the exit that follows it.
        worker.process.join(1.0)
        assert worker.wait(time.monotonic() + 1.0) == expected
    finally:
        worker.kill()
    assert not worker.process.is_alive()
