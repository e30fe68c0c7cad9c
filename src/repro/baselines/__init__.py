"""IPID primitives of the baselines the paper validates its alias sets with.

* :mod:`repro.baselines.ipid` — IPID time-series collection and the
  monotonic bounds test shared by the IPID-based techniques.

The IPID techniques themselves — MIDAR, Ally and Speedtrap — are validator
kinds of :mod:`repro.validation`, run over a shared
:class:`~repro.validation.bank.IpidSampleBank`.
"""

from repro.baselines.ipid import IpidTimeSeries, TargetClass, classify_series, shared_counter_test

__all__ = [
    "IpidTimeSeries",
    "TargetClass",
    "classify_series",
    "shared_counter_test",
]
