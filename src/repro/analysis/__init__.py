"""Analysis helpers: distributions, AS-level statistics, and table rendering.

These are the building blocks of the paper's evaluation section:

* :mod:`repro.analysis.ecdf` — empirical CDFs (Figures 3-6 are all ECDFs).
* :mod:`repro.analysis.setstats` — alias-set size statistics.
* :mod:`repro.analysis.aslevel` — AS-level aggregation and top-N tables.
* :mod:`repro.analysis.tables` — plain-text table rendering and the paper's
  "k / M" number formatting.
* :mod:`repro.analysis.report` — an end-to-end markdown report generator.
* :mod:`repro.analysis.stability` — longitudinal per-snapshot stability
  tables (set persistence and churn-attributed splits).
* :mod:`repro.analysis.validation` — validator summary tables and the
  per-snapshot MIDAR-disagreement series.
"""

from repro.analysis.aslevel import multi_as_fraction, role_split, top_as_table
from repro.analysis.ecdf import Ecdf
from repro.analysis.setstats import set_size_summary
from repro.analysis.stability import (
    stability_markdown_from,
    stability_rows_from,
    stability_table_from,
)
from repro.analysis.tables import format_count, render_table
from repro.analysis.validation import (
    snapshot_validation_table,
    validation_markdown,
    validation_table,
)

__all__ = [
    "multi_as_fraction",
    "role_split",
    "top_as_table",
    "Ecdf",
    "set_size_summary",
    "format_count",
    "render_table",
    "stability_markdown_from",
    "stability_rows_from",
    "stability_table_from",
    "snapshot_validation_table",
    "validation_markdown",
    "validation_table",
]
