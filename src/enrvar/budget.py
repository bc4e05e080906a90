"""Global enumeration budget shared by the exhaustive searches."""
from __future__ import annotations

import os

ENV_VAR = "ENRVAR_BUDGET"
DEFAULT_LIMIT = 20_000_000


class BudgetExceeded(RuntimeError):
    """The combinatorial budget for an enumeration was exhausted."""


class BadBudget(ValueError):
    """The budget environment variable is not an integer of at least 1."""


class Budget:
    """A monotone work counter; charge() raises BudgetExceeded past the limit."""

    def __init__(self, limit: int | None = None):
        if limit is None:
            raw = os.environ.get(ENV_VAR, str(DEFAULT_LIMIT))
            try:
                limit = int(raw)
            except ValueError:
                raise BadBudget(f"{ENV_VAR}={raw!r} is not an integer") from None
            if limit < 1:
                raise BadBudget(f"{ENV_VAR}={raw!r} is below 1")
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"enumeration budget of {self.limit} exceeded"
            )


def ensure_budget(budget: Budget | int | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
