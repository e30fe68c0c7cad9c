"""Empirical cumulative distribution functions.

All four figures of the paper are ECDFs (addresses per alias set, ASes per
set, sets per AS).  The class is intentionally simple: sorted values plus
evaluation, quantiles and a fixed-point series suitable for regenerating the
figures as data tables.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence


class Ecdf:
    """The empirical CDF of a sample."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values = sorted(values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        """The sorted sample."""
        return list(self._values)

    def evaluate(self, x: float) -> float:
        """Fraction of the sample that is less than or equal to ``x``."""
        if not self._values:
            return 0.0
        return bisect.bisect_right(self._values, x) / len(self._values)

    def quantile(self, q: float) -> float:
        """The smallest sample value at or above the ``q``-quantile.

        Raises:
            ValueError: if the sample is empty or ``q`` is outside [0, 1].
        """
        if not self._values:
            raise ValueError("quantile of an empty sample")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if q == 0.0:
            return self._values[0]
        index = max(0, min(len(self._values) - 1, int(q * len(self._values) + 0.999999) - 1))
        return self._values[index]

    def median(self) -> float:
        """The 0.5 quantile."""
        return self.quantile(0.5)

    def series(self, points: Sequence[float] | None = None) -> list[tuple[float, float]]:
        """(x, F(x)) pairs — the data behind an ECDF plot.

        When ``points`` is omitted the sample's own distinct values are used,
        which reproduces the exact staircase of the figure.
        """
        xs = sorted(set(self._values)) if points is None else list(points)
        return [(x, self.evaluate(x)) for x in xs]
