"""Shared result type for the verification sweeps."""

from __future__ import annotations

from typing import NamedTuple


class SweepReport(NamedTuple):
    name: str
    checked: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{self.name}: {self.checked} instances checked, "
                 f"{len(self.failures)} counterexamples"]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)
