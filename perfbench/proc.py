"""Run one workload operation in a forked child process.

Each operation (a catalog command, a scale-out command, one query)
runs in a child forked from the benchmark process, which has imported
`surfideals` but never called into it.  So every operation starts with
the program's caches cold, whatever caches a later version adds, and
its peak RSS is that of its own process.
"""

from __future__ import annotations

import json
import os
import select
import signal
import time


# A child still running after this many seconds is killed, so that a run
# ends within the benchmark's 180 s even if an operation hangs.
TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """The child died, timed out or sent no result."""


def run_forked(fn) -> dict:
    """Call `fn()` in a forked child and return the dict it returns.

    The dict must be JSON-serializable.  An exception in the child is
    returned as {"exception": "<type>: <message>"}; a child that dies or
    outlives TIMEOUT_S is killed, reaped and reported as ChildFailed.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            try:
                result = fn()
            except BaseException as exc:  # reported to the parent, never re-raised here
                result = {"exception": f"{type(exc).__name__}: {exc}"}
            payload = json.dumps(result).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                raise ChildFailed(f"operation exceeded {TIMEOUT_S} s")
            ready, _, _ = select.select([read_fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        raise ChildFailed(f"child exited with status {status} and {len(chunks)} result chunks")
    return json.loads(b"".join(chunks))
