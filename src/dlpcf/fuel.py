"""The budget shared by the index evaluator, the reducer, and the machine.

A budget of F allows F ticks, and the next tick raises `FuelExhausted(F)`.
Each evaluator counts its ticks on an integer of its own and tests it in
one place: `index._eval` on the fuel it has left, `pcf.wh_eval` and
`machine.run` on their step counters.
"""

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


DEFAULT_FUEL = 10**6
DEFAULT_BOUND = 8
