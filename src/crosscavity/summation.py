"""Compensated accumulation helper for alternating-sign term sums."""

from __future__ import annotations


class KahanSum:
    """Kahan-compensated running sum of complex (or real) values."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0j
        self.carry = 0j

    def add(self, value: complex) -> None:
        value = value + self.carry
        new_total = self.total + value
        self.carry = value - (new_total - self.total)
        self.total = new_total

    def value(self) -> complex:
        return self.total + self.carry

