"""A scope that keeps the cyclic garbage collector out of long builds.

A world build and an audit allocate millions of long-lived objects and
leave no cyclic garbage behind, yet every allocation burst makes the
collector walk the growing heap again (about a quarter of a build at
``address_scale=0.2``). Inside :func:`gc_quiet` the collector is off;
reference counting still frees everything that is not a cycle.

Scopes nest and overlap across threads: a depth counter under a lock
turns the collector off when the first scope opens and restores the
state that scope found when the last one closes. So a caller that had
the collector off keeps it off, and two threads building worlds at
once never leave it off for good.

When the scopes grew the heap by more than a quarter, the collector
would have run at least one full collection during them (that is its
own trigger). Turned back on, it would run that walk on whatever
allocated next, such as a later panel wave or a request. So the last
scope to close runs that one full collection itself. A smaller growth
(a tiny world built in a process that holds big ones) is left to the
collector's young generations, as it would have been.
"""

from __future__ import annotations

import gc
import sys
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_quiet"]

_lock = threading.Lock()
_depth = 0
# Whether the collector was on when the outermost open scope began,
# and the allocated memory blocks then.
_restore = False
_blocks = 0


@contextmanager
def gc_quiet() -> Iterator[None]:
    """Run the body with the cyclic collector off (also a decorator)."""
    global _depth, _restore, _blocks
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            _blocks = sys.getallocatedblocks()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore:
                # Collected before enabling, or the collector would walk
                # the heap once on its own and then again here. The walk
                # holds the interpreter lock throughout, so holding
                # _lock too stalls no thread that could have run.
                if sys.getallocatedblocks() - _blocks > _blocks // 4:
                    gc.collect()
                gc.enable()
