"""Hold CPython's cyclic garbage collector off around allocation-heavy,
cycle-free work.

An event simulation allocates tens of thousands of short-lived objects
(tasks, records, allocator events) that reference counting frees; none of
them form cycles, so the collector passes they trigger find nothing.  They
are not free, though: every ~10 young passes the collector scans the middle
generation, and every ~10 of those the whole heap (tens of thousands of
module-level objects, ~20-50 ms on a small virtual machine).  Whether such a
full pass lands inside a given 50-ms profiling call depends on allocation
counts left over from earlier work, so an identical call takes either its
own time or that plus a full pass.

:func:`gc_paused` disables the collector for the duration of the block and
re-enables it on exit (if it was enabled on entry).  Nested and concurrent
blocks share one count under a lock: the collector comes back when the
last block exits, so one thread cannot switch it on under another.
Collection is deferred, not skipped: the allocations made inside the block
still count, so the first allocation after it triggers a young pass.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_reenable = False


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled."""
    global _depth, _reenable
    with _lock:
        if _depth == 0:
            _reenable = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _reenable:
                gc.enable()
