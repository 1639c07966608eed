"""Recursion-limit headroom for recursive passes over program trees.

The parser enforces hard caps on program nesting, but recursing over even
a capped tree takes a few host stack frames per level; this guard makes
sure the recursion limit never turns a legal (or about-to-be-rejected)
program into an ungraceful host error while it is parsed, rendered or
compiled.  Evaluation sizes its own headroom from the call-depth budget.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager


@contextmanager
def stack_headroom(limit: int = 10_000):
    """Raise the recursion limit to `limit` for the block, if it is below."""
    previous = sys.getrecursionlimit()
    if previous >= limit:
        yield
        return
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
