"""Streaming resolution service: full-scan ingest, typed events, churn inference.

The batch pipeline answers "what did the campaign see"; this package
answers "what is changing right now".  A
:class:`~repro.stream.engine.StreamingEngine` keeps a live alias report
current over a sequence of full scans through the longitudinal delta
machinery — each scan is synced, then flushed as one emit — publishes
typed change events (:mod:`repro.stream.events`) on every emit, and
infers the network's churn rate online (:mod:`repro.stream.estimator`).
The :class:`~repro.stream.daemon.StreamDaemon` (``repro serve``) drives
the simnet as a live event source, one scan and one emit per poll, with
graceful shutdown and checkpointed resume (:mod:`repro.persist.stream`).
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
    StreamPublisher,
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
    "StreamPublisher",
    "StreamUpdate",
    "StreamingEngine",
    "events_from_delta",
]
