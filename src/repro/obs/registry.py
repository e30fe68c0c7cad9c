"""The process-wide metrics registry.

One :class:`MetricsRegistry` holds every measurement the pipeline publishes:

* **Counters** — monotonically increasing totals (observations indexed,
  cache hits, probes issued), keyed by metric name plus a label set, so one
  metric carries many series (``session.cache{kind="report", outcome="hit"}``).
* **Gauges** — point-in-time levels (dirty-set sizes, interned symbols).
* **Histograms** — value distributions over fixed bucket bounds (e.g.
  timings), carrying per-bucket counts plus sum/count/min/max.
* **Series** — named append-only lists of record dicts: the longitudinal
  campaign publishes one deterministic row per snapshot here, and the same
  rows persist alongside campaign checkpoints so a resumed campaign's
  series equals the uninterrupted run's.
* **Spans** — completed root spans from :mod:`repro.obs.trace`.

The registry itself is passive storage: whether the pipeline *writes* to it
is governed by the module-level switch in :mod:`repro.obs`, so a disabled
run never pays more than one boolean check per seam.  Two renderings are
supported — :meth:`MetricsRegistry.to_json` (a plain JSON document that
:meth:`MetricsRegistry.from_json` rebuilds losslessly) and
:meth:`MetricsRegistry.prometheus_text` (Prometheus text exposition) — and
they commute: rendering the rebuilt registry yields byte-identical text.

Merging (:meth:`MetricsRegistry.merge`) folds another registry's counters,
gauges and histograms into this one with commutative, associative
operations (counters and histogram cells add, gauges keep the high-water
mark), so folding per-shard or per-phase registries together is
order-independent — ``tests/obs/test_merge_properties.py`` asserts this
with hypothesis.  Spans and series are deliberately *not* merged: both are
ordered local narratives, not aggregable quantities.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Callable, Iterator, Mapping

from repro.errors import DatasetError

#: Serialised label set: sorted (key, value) pairs — hashable and ordered.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus
#: style); every histogram gets one extra +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_:]")


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonicalise a label mapping into a sorted, stringified tuple."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def prometheus_name(name: str) -> str:
    """A metric name rendered for Prometheus exposition (dots become ``_``)."""
    sanitised = _NAME_SANITISER.sub("_", name)
    if not sanitised or sanitised[0].isdigit():
        sanitised = f"_{sanitised}"
    return sanitised


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    escaped = (
        (name, value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for name, value in key
    )
    return "{" + ",".join(f'{name}="{value}"' for name, value in escaped) + "}"


def _render_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do (ints stay ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(value)


@dataclasses.dataclass
class Histogram:
    """One histogram series: cumulative bucket counts plus summary stats."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    #: One cell per bound, +Inf last; filled by ``__post_init__``.
    counts: list[int] = dataclasses.field(default_factory=list)
    total: float = 0.0
    count: int = 0
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        position = len(self.bounds)
        for at, bound in enumerate(self.bounds):
            if value <= bound:
                position = at
                break
        self.counts[position] += 1
        self.total += value
        self.count += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's cells into this one (commutative)."""
        if self.bounds != other.bounds:
            raise DatasetError(
                "cannot merge histograms with different bucket bounds"
            )
        for at, cell in enumerate(other.counts):
            self.counts[at] += cell
        self.total += other.total
        self.count += other.count
        for extreme, pick in (("minimum", min), ("maximum", max)):
            theirs = getattr(other, extreme)
            if theirs is not None:
                mine = getattr(self, extreme)
                setattr(self, extreme, theirs if mine is None else pick(mine, theirs))

    def to_json(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Histogram":
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=[int(cell) for cell in payload["counts"]],
            total=payload["sum"],
            count=int(payload["count"]),
            minimum=payload["min"],
            maximum=payload["max"],
        )


class MetricsRegistry:
    """Labeled counters, gauges, histograms, series, and completed spans.

    Mutation helpers (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`,
    :meth:`append_series`) are cheap dictionary operations; rendering and
    merging happen off the hot path.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}
        self._series: dict[str, list[dict[str, Any]]] = {}
        self._spans: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` to the counter series ``name{labels}``."""
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        self._gauges.setdefault(name, {})[label_key(labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] | None = None,
        **labels: object,
    ) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        series = self._histograms.setdefault(name, {})
        key = label_key(labels)
        histogram = series.get(key)
        if histogram is None:
            histogram = series[key] = Histogram(bounds=bounds or DEFAULT_BUCKETS)
        histogram.observe(value)

    def append_series(self, name: str, row: Mapping[str, object]) -> None:
        """Append one record to the named series (rows are stored as dicts)."""
        self._series.setdefault(name, []).append(dict(row))

    def record_span(self, span: dict[str, Any]) -> None:
        """Record one completed root span (see :mod:`repro.obs.trace`)."""
        self._spans.append(span)

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 when never incremented)."""
        return self._counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of every label series of one counter."""
        return sum(self._counters.get(name, {}).values())

    def counter_totals(self) -> dict[tuple[str, LabelKey], float]:
        """Flat snapshot of every counter cell — the span-delta baseline."""
        return {
            (name, key): value
            for name, series in self._counters.items()
            for key, value in series.items()
        }

    def gauge_value(self, name: str, **labels: object) -> float | None:
        """Current value of one gauge series, or ``None`` when never set."""
        return self._gauges.get(name, {}).get(label_key(labels))

    def histogram(self, name: str, **labels: object) -> Histogram | None:
        """One histogram series, or ``None`` when nothing was observed."""
        return self._histograms.get(name, {}).get(label_key(labels))

    def series(self, name: str) -> list[dict[str, Any]]:
        """The rows of one named series (shared reference, treat read-only)."""
        return self._series.get(name, [])

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Completed root spans, in completion order."""
        return self._spans

    def counter_names(self) -> Iterator[str]:
        """Registered counter metric names."""
        return iter(self._counters)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop every sample."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._series.clear()
        self._spans.clear()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s counters, gauges and histograms into this one.

        Counters and histogram cells add; gauges keep the high-water mark —
        all commutative and associative, so merging any number of
        registries is order-independent.  Spans and series stay local (they
        are ordered narratives, not aggregable quantities).  Returns
        ``self`` for chaining.
        """
        if other is self:
            raise DatasetError("cannot merge a MetricsRegistry into itself")
        for name, series in other._counters.items():
            mine = self._counters.setdefault(name, {})
            for key, value in series.items():
                mine[key] = mine.get(key, 0) + value
        for name, series in other._gauges.items():
            mine = self._gauges.setdefault(name, {})
            for key, value in series.items():
                current = mine.get(key)
                mine[key] = value if current is None else max(current, value)
        for name, histogram_series in other._histograms.items():
            merged = self._histograms.setdefault(name, {})
            for key, histogram in histogram_series.items():
                current = merged.get(key)
                if current is None:
                    current = merged[key] = Histogram(bounds=histogram.bounds)
                current.merge(histogram)
        return self

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_json(self) -> dict[str, Any]:
        """A deterministic, JSON-serialisable document of every sample.

        Keys and label sets are sorted, so two registries holding the same
        samples render identically regardless of insertion order; spans and
        series keep their own (meaningful) order.
        """
        def render(
            series: Mapping[LabelKey, Any], value: Callable[[Any], Any]
        ) -> list[dict[str, Any]]:
            return [
                {"labels": dict(key), "value": value(series[key])}
                for key in sorted(series)
            ]

        return {
            "counters": {
                name: render(self._counters[name], lambda v: v)
                for name in sorted(self._counters)
            },
            "gauges": {
                name: render(self._gauges[name], lambda v: v)
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: render(self._histograms[name], lambda v: v.to_json())
                for name in sorted(self._histograms)
            },
            "series": {name: list(self._series[name]) for name in sorted(self._series)},
            "spans": list(self._spans),
        }

    @classmethod
    def from_json(cls, document: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output."""
        try:
            registry = cls()
            for name, entries in document.get("counters", {}).items():
                series = registry._counters.setdefault(name, {})
                for entry in entries:
                    series[label_key(entry["labels"])] = entry["value"]
            for name, entries in document.get("gauges", {}).items():
                series = registry._gauges.setdefault(name, {})
                for entry in entries:
                    series[label_key(entry["labels"])] = entry["value"]
            for name, entries in document.get("histograms", {}).items():
                histogram_series = registry._histograms.setdefault(name, {})
                for entry in entries:
                    histogram_series[label_key(entry["labels"])] = Histogram.from_json(
                        entry["value"]
                    )
            for name, rows in document.get("series", {}).items():
                registry._series[name] = [dict(row) for row in rows]
            registry._spans = [dict(span) for span in document.get("spans", ())]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed metrics document: {exc}") from exc
        return registry

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the counters, gauges and histograms.

        Series and spans have no Prometheus shape and are JSON-only.  The
        rendering is deterministic (sorted names and label sets), and it
        commutes with the JSON export: ``from_json(to_json()).prometheus_text()``
        equals ``prometheus_text()``.
        """
        lines: list[str] = []
        for name in sorted(self._counters):
            exposed = prometheus_name(name)
            lines.append(f"# TYPE {exposed} counter")
            series = self._counters[name]
            for key in sorted(series):
                lines.append(
                    f"{exposed}{_render_labels(key)} {_render_value(series[key])}"
                )
        for name in sorted(self._gauges):
            exposed = prometheus_name(name)
            lines.append(f"# TYPE {exposed} gauge")
            series = self._gauges[name]
            for key in sorted(series):
                lines.append(
                    f"{exposed}{_render_labels(key)} {_render_value(series[key])}"
                )
        for name in sorted(self._histograms):
            exposed = prometheus_name(name)
            lines.append(f"# TYPE {exposed} histogram")
            histogram_series = self._histograms[name]
            for key in sorted(histogram_series):
                histogram = histogram_series[key]
                cumulative = 0
                for bound, cell in zip(histogram.bounds, histogram.counts, strict=False):
                    cumulative += cell
                    bucket_key = key + (("le", _render_value(bound)),)
                    lines.append(
                        f"{exposed}_bucket{_render_labels(bucket_key)} {cumulative}"
                    )
                cumulative += histogram.counts[-1]
                bucket_key = key + (("le", "+Inf"),)
                lines.append(
                    f"{exposed}_bucket{_render_labels(bucket_key)} {cumulative}"
                )
                lines.append(
                    f"{exposed}_sum{_render_labels(key)} {_render_value(histogram.total)}"
                )
                lines.append(f"{exposed}_count{_render_labels(key)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")
