"""The process-wide metrics registry.

One :class:`MetricsRegistry` holds every measurement the pipeline publishes:

* **Counters** — monotonically increasing totals (observations indexed,
  cache hits, probes issued), keyed by metric name plus a label set, so one
  metric carries many series (``session.cache{kind="report", outcome="hit"}``).
* **Gauges** — point-in-time levels (interned symbols, stream coverage).
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
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.errors import DatasetError

#: Serialised label set: sorted (key, value) pairs — hashable and ordered.
LabelKey = tuple[tuple[str, str], ...]

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


class MetricsRegistry:
    """Labeled counters and gauges, series, and completed spans.

    Mutation helpers (:meth:`inc`, :meth:`set_gauge`, :meth:`append_series`)
    are cheap dictionary operations; rendering happens off the hot path.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
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

    def series(self, name: str) -> list[dict[str, Any]]:
        """The rows of one named series (shared reference, treat read-only)."""
        return self._series.get(name, [])

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Completed root spans, in completion order."""
        return self._spans

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop every sample."""
        self._counters.clear()
        self._gauges.clear()
        self._series.clear()
        self._spans.clear()

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_json(self) -> dict[str, Any]:
        """A deterministic, JSON-serialisable document of every sample.

        Keys and label sets are sorted, so two registries holding the same
        samples render identically regardless of insertion order; spans and
        series keep their own (meaningful) order.
        """
        def render(series: Mapping[LabelKey, float]) -> list[dict[str, Any]]:
            return [{"labels": dict(key), "value": series[key]} for key in sorted(series)]

        return {
            "counters": {name: render(self._counters[name]) for name in sorted(self._counters)},
            "gauges": {name: render(self._gauges[name]) for name in sorted(self._gauges)},
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
            for name, rows in document.get("series", {}).items():
                registry._series[name] = [dict(row) for row in rows]
            registry._spans = [dict(span) for span in document.get("spans", ())]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed metrics document: {exc}") from exc
        return registry

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the counters and gauges.

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
        return "\n".join(lines) + ("\n" if lines else "")
