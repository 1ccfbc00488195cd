"""Result container shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """values[k'] is the exact optimum for each k' = 0..k; values[-1] is
    the requested k."""

    k: int
    values: list[int]
    solver: str
    witness: list[int] | None = None
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def optimum(self) -> int:
        return self.values[self.k]
