"""In-flight crypto request counters (paper section 4.3).

Collected in the offload-engine layer "for accuracy": Rasym, Rcipher
and Rprf are incremented at submission and decremented in the response
callback; their sum Rtotal is exported to the application through an
engine command and drives the heuristic polling scheme.
"""

from __future__ import annotations

from ..crypto.ops import OpCategory

__all__ = ["InflightCounters"]


class InflightCounters:
    """Per-worker counters of submitted-but-unretrieved crypto requests."""

    def __init__(self) -> None:
        self._counts = {cat: 0 for cat in OpCategory}

    def increment(self, category: OpCategory) -> None:
        self._counts[category] += 1

    def decrement(self, category: OpCategory) -> None:
        if self._counts[category] <= 0:
            raise RuntimeError(f"inflight underflow for {category}")
        self._counts[category] -= 1

    @property
    def asym(self) -> int:
        return self._counts[OpCategory.ASYM]

    @property
    def cipher(self) -> int:
        return self._counts[OpCategory.CIPHER]

    @property
    def prf(self) -> int:
        return self._counts[OpCategory.PRF]

    @property
    def total(self) -> int:
        """Rtotal = Rasym + Rcipher + Rprf."""
        return sum(self._counts.values())
