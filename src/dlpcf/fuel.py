"""Fuel accounting shared by the index evaluator, the reducer, and the machine."""

from __future__ import annotations


class FuelExhausted(Exception):
    """Raised when a bounded computation runs out of fuel."""

    def __init__(self, budget: int):
        super().__init__(f"fuel exhausted (budget {budget})")
        self.budget = budget


def check_budget(budget: int) -> None:
    """Raise ValueError unless `budget` allows at least one tick."""
    if budget <= 0:
        raise ValueError("fuel budget must be positive")


class Fuel:
    """A mutable countdown.  `tick` raises FuelExhausted at zero."""

    __slots__ = ("remaining", "budget")

    def __init__(self, budget: int):
        check_budget(budget)
        self.budget = budget
        self.remaining = budget

    def tick(self, cost: int = 1) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise FuelExhausted(self.budget)


DEFAULT_FUEL = 10**6
DEFAULT_BOUND = 8
