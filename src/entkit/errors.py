"""Errors shared across entkit's modules."""
from __future__ import annotations

__all__ = ["InternalError"]


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in entkit, not a bad input.

    The CLI reports it with exit status 3, apart from domain errors (1).
    """
