"""Continuity-rate functions: how fast conditional probabilities of states
with a long common suffix must agree.

Three parametric families plus explicit tables.  Every evaluation at
depth m >= 1 is clamped strictly below 1/(4m) (the admissibility
constraint the rest of the library assumes); depth 0 uses a
configurable cap because the constraint is vacuous there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DeltaSpec", "CLAMP_MARGIN"]

CLAMP_MARGIN = 1e-9

_KINDS = ("poly", "exp", "dexp", "table")


@dataclass(frozen=True)
class DeltaSpec:
    """A positive, depth-indexed rate delta(m).

    kind:
      poly  - m**(-c), c > 1
      exp   - 2**(-c*m), c > 0
      dexp  - 2**(-2**(c*m)), c > 0
      table - explicit values for m = 1..len(values)
    cap0 is the value used at depth 0 (empty common suffix).
    """

    kind: str
    c: float | None = None
    values: tuple[float, ...] | None = None
    cap0: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown delta kind {self.kind!r}")
        if self.kind == "table":
            if not self.values:
                raise ValueError("table delta needs at least one value")
            if not all(0 < v < math.inf for v in self.values):
                raise ValueError("table delta values must be positive and finite")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            if self.c is None:
                raise ValueError(f"{self.kind} delta needs a rate parameter")
            if not math.isfinite(self.c):
                raise ValueError(f"{self.kind} delta needs a finite rate parameter, got {self.c}")
            if self.kind == "poly" and self.c <= 1:
                raise ValueError("poly delta needs c > 1")
            if self.kind in ("exp", "dexp") and self.c <= 0:
                raise ValueError(f"{self.kind} delta needs c > 0")
        if not 0 < self.cap0 < math.inf:
            raise ValueError("cap0 must be positive and finite")

    # -- evaluation ---------------------------------------------------------

    def raw(self, m: int) -> float:
        """Unclamped formula value at depth m."""
        if m < 0:
            raise ValueError("depth must be non-negative")
        if self.kind == "poly":
            return math.inf if m == 0 else m ** (-self.c)
        if self.kind == "exp":
            return 2.0 ** (-self.c * m)
        if self.kind == "dexp":
            return 2.0 ** (-(2.0 ** (self.c * m)))
        # table
        if m == 0:
            return self.cap0
        if m > len(self.values):
            raise IndexError(f"delta table of length {len(self.values)} has no depth {m}")
        return self.values[m - 1]

    def clamp(self, m: int) -> float:
        """Largest admissible value at depth m."""
        return self.cap0 if m == 0 else (1.0 - CLAMP_MARGIN) / (4.0 * m)

    def eval_detail(self, m: int) -> tuple[float, bool]:
        """(value, clamped) at depth m."""
        raw = self.raw(m)
        if raw == 0.0:
            raw = 5e-324  # doubly exponential rates underflow; keep delta > 0
        cap = self.clamp(m)
        return (cap, True) if raw > cap else (raw, False)

    def __call__(self, m: int) -> float:
        return self.eval_detail(m)[0]

    def log2_inv(self, m: int) -> float:
        """-log2 of the effective rate, exact even where the rate underflows.

        min(raw, clamp) in value space is max in -log2 space, and every
        family has a closed form for -log2(raw).
        """
        self.raw(m)  # range/argument validation
        if m == 0:
            return -math.log2(self(0))
        if self.kind == "poly":
            raw_li = self.c * math.log2(m)
        elif self.kind == "exp":
            raw_li = self.c * m
        elif self.kind == "dexp":
            raw_li = 2.0 ** (self.c * m)
        else:
            raw_li = -math.log2(self.values[m - 1])
        return max(raw_li, -math.log2(self.clamp(m)))

    # -- text form ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DeltaSpec":
        """Parse ``poly:c`` / ``exp:c`` / ``dexp:c`` / ``table:v1,v2,...``."""
        kind, _, arg = text.strip().partition(":")
        kind = kind.lower()
        if not arg:
            raise ValueError(f"malformed delta spec {text!r}")
        if kind == "table":
            vals = tuple(float(v) for v in arg.split(","))
            return cls("table", values=vals)
        if kind in ("poly", "exp", "dexp"):
            return cls(kind, c=float(arg))
        raise ValueError(f"unknown delta kind {kind!r}")

    def describe(self) -> str:
        if self.kind == "table":
            return "table:" + ",".join(repr(v) for v in self.values)
        c = self.c
        text = repr(c) if c != int(c) else str(int(c))
        return f"{self.kind}:{text}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()
