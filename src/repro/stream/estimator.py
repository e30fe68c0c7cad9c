"""Online churn-rate inference from observed address-reassignment deltas.

The simulated campaign *knows* the churn it injected; a live service only
sees its consequences.  Between two emits, an address that was being
tracked and got reassigned to another device either answers with a new
identity (its observations are replaced) or stops answering (its
observations are removed) — in both cases every observation of that
address leaves the index.  The distinct addresses behind the removals of
a window, over the addresses tracked at the window's start, is therefore
an unbiased per-window estimate of the reassigned fraction; scaling by
``interval / elapsed`` normalises windows that do not line up with the
nominal churn interval.

Per-window estimates are noisy (small windows, integer churn sampling,
devices whose identity survives a move — e.g. shared SSH-key groups), so
the estimator smooths them with a windowed EWMA: ``alpha = 2/(window+1)``,
the classic N-window moving-average equivalence.  The simnet knows the
ground truth (``LongitudinalConfig.churn_fraction``), which is what the
estimator gate in ``tests/stream/test_estimator.py`` validates against.

The estimator is deliberately deterministic, pure state: ``state()`` /
``restore()`` round-trip it through stream checkpoints so a resumed
daemon continues the same smoothed series.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from repro.errors import SimulationError
from repro.jsonvalues import json_count, json_integer, json_number

Parsed = TypeVar("Parsed")


class ChurnRateEstimator:
    """Windowed EWMA over per-window observed reassignment fractions.

    Attributes:
        interval: nominal churn interval (simulated seconds) the estimate
            is expressed per — a rate of 0.02 means "2% of tracked
            addresses reassigned per ``interval`` seconds".
        window: smoothing horizon in windows (``alpha = 2/(window+1)``).
    """

    def __init__(self, interval: float, window: int = 8) -> None:
        if not (interval > 0 and math.isfinite(interval)):
            raise SimulationError(
                f"estimator interval must be positive and finite (got {interval})"
            )
        if window < 1:
            raise SimulationError("estimator window must be at least 1")
        self.interval = interval
        self.window = window
        self._alpha = 2.0 / (window + 1)
        self._rate: float | None = None
        self._windows = 0

    @property
    def rate(self) -> float | None:
        """Current per-interval estimate (``None`` before the first window)."""
        return self._rate

    @property
    def windows(self) -> int:
        """Number of windows folded into the estimate so far."""
        return self._windows

    def update(self, reassigned: int, tracked: int, elapsed: float) -> float | None:
        """Fold one window's observation into the estimate.

        Args:
            reassigned: distinct addresses whose observations left the
                index during the window (replaced or vanished).
            tracked: distinct addresses tracked at the window's start.
            elapsed: simulated seconds the window spanned.

        Returns:
            The updated per-interval rate, or the unchanged current value
            when the window carries no signal (nothing tracked, or no
            simulated time elapsed).
        """
        if tracked <= 0 or elapsed <= 0:
            return self._rate
        raw = (reassigned / tracked) * (self.interval / elapsed)
        if self._rate is None:
            self._rate = raw
        else:
            self._rate = self._alpha * raw + (1.0 - self._alpha) * self._rate
        self._windows += 1
        return self._rate

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """JSON-serialisable state (round-trips through :meth:`restore`)."""
        return {
            "interval": self.interval,
            "window": self.window,
            "rate": self._rate,
            "windows": self._windows,
        }

    @classmethod
    def restore(cls, state: dict) -> "ChurnRateEstimator":
        """Rebuild an estimator from :meth:`state` output.

        Raises:
            SimulationError: naming the field, when the interval is not a
                positive finite number, the window not a positive integer,
                the rate neither a finite number nor null, or the window
                count not a non-negative integer.
        """
        def field(key: str, parse: Callable[[object], Parsed], requirement: str) -> Parsed:
            value = state[key]
            try:
                return parse(value)
            except TypeError as exc:
                raise SimulationError(f"estimator {key} {exc}") from exc
            except ValueError as exc:
                raise SimulationError(f"estimator {key} {requirement} (got {value!r})") from exc

        estimator = cls(
            interval=field("interval", json_number, "must be positive and finite"),
            window=field("window", json_integer, "must be at least 1"),
        )
        if state["rate"] is not None:
            estimator._rate = field("rate", json_number, "must be finite")
        estimator._windows = field("windows", json_count, "cannot be negative")
        return estimator
