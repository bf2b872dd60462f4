"""Tallies of (min, max, +) operations performed by the branch-free solvers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpCounts:
    """Immutable record of how many min/max/add operations a run performed."""

    min_count: int
    max_count: int
    add_count: int

    @property
    def total(self) -> int:
        return self.min_count + self.max_count + self.add_count

    def as_dict(self) -> dict[str, int]:
        return {
            "min": self.min_count,
            "max": self.max_count,
            "add": self.add_count,
            "total": self.total,
        }

