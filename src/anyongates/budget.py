"""One byte budget for every stage of a call.

Each stage that may allocate much charges the bytes it is about to allocate
to its call's :class:`Budget` first: a model build, one sphere enumeration,
one search, one closed-form listing.  Charges add up over the call; past
``BUDGET_BYTES`` it raises :class:`SearchBudgetError` (a ValueError) naming
the stage, its count and bytes, the call's total and the budget.
"""

from __future__ import annotations

BUDGET_BYTES = 1 << 30


class SearchBudgetError(ValueError):
    """A call's charges passed ``BUDGET_BYTES``."""


class Budget:
    """The bytes one call has charged so far."""

    def __init__(self):
        self.spent = 0

    def charge(self, stage: str, count: int, nbytes: int) -> None:
        """Charge ``count`` items of ``nbytes`` bytes each, before they exist."""
        self.spent += count * nbytes
        if self.spent > BUDGET_BYTES:
            raise SearchBudgetError(
                f"{stage}: {count:,} x {nbytes:,} bytes, {self.spent:,} bytes in all, "
                f"above the budget of {BUDGET_BYTES:,} bytes; this input is out of reach"
            )


def chunk_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that one array pass takes: 1/1024 of the budget."""
    return max(1, (BUDGET_BYTES >> 10) // max(1, row_bytes))
