"""Streaming resolution: full-scan ingest, typed events, churn inference.

Every longitudinal run goes through this package.  A
:class:`~repro.stream.engine.StreamingEngine` keeps a live alias report
current over a sequence of full scans through the longitudinal delta
machinery — each scan is synced, then flushed as one emit — returns each
emit's typed change events (:mod:`repro.stream.events`) on its
:class:`~repro.stream.engine.StreamUpdate`, and infers the network's churn
rate online (:mod:`repro.stream.estimator`).
The :class:`~repro.stream.daemon.StreamDaemon` poll loop drives the simnet
as a live event source, one scan and one emit per poll, with graceful
shutdown and checkpointed resume (:mod:`repro.persist.stream`):
``repro longitudinal`` runs it for a bounded campaign, ``repro serve``
until stopped.
"""

from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamConfig, StreamingEngine, StreamUpdate
from repro.stream.estimator import ChurnRateEstimator
from repro.stream.events import (
    AliasSetBorn,
    AliasSetDissolved,
    AliasSetEvent,
    AliasSetGrown,
    AliasSetMigrated,
    AliasSetShrunk,
    CoverageChanged,
    ReportEmitted,
    StreamEvent,
    events_from_delta,
)

__all__ = [
    "AliasSetBorn",
    "AliasSetDissolved",
    "AliasSetEvent",
    "AliasSetGrown",
    "AliasSetMigrated",
    "AliasSetShrunk",
    "ChurnRateEstimator",
    "CoverageChanged",
    "DaemonConfig",
    "ReportEmitted",
    "StreamConfig",
    "StreamDaemon",
    "StreamEvent",
    "StreamUpdate",
    "StreamingEngine",
    "events_from_delta",
]
