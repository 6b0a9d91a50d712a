"""Exceptions shared across layers.

They live here, below every module that raises them, so that `cli.main`
can map each one to its one-line message without importing the newform
and decomposition layers.  `newforms` and `quasimodular` re-export them
under their old names.
"""
from __future__ import annotations

__all__ = ["CatalogIncompleteError", "DerivationError", "RankDeficientError"]


class CatalogIncompleteError(LookupError):
    """A needed newform space is not covered by catalog, ingested, or
    derivable records.  Carries the missing (level, weight) and the reason
    the records could not be completed (empty when none is known)."""

    def __init__(self, level: int, weight: int, detail: str = ""):
        # the fields stay in args, so copy and pickle rebuild the error
        super().__init__(level, weight, detail)
        self.level = level
        self.weight = weight
        self.detail = detail

    def __str__(self) -> str:
        msg = f"newform space (level {self.level}, weight {self.weight}) is not available"
        return f"{msg}: {self.detail}" if self.detail else msg


class DerivationError(RuntimeError):
    """Exact derivation of a newform space failed (span or splitting)."""


class RankDeficientError(RuntimeError):
    """Basis matrix stayed rank-deficient through the escalation cap."""
