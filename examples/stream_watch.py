#!/usr/bin/env python3
"""Streaming resolution: watch alias-set change events arrive live.

A resident ``StreamingEngine`` ingests each scan as it happens, emits an
incremental resolution at every poll, and returns that emit's typed change
events — born / dissolved / grown / shrunk / migrated alias sets, coverage
changes, and a closing report — on the update.  Every longitudinal run
polls it: ``repro longitudinal`` and ``repro serve`` alike, and
``examples/longitudinal_churn.py``.

This example drives the engine the same way ``repro serve`` does:

1. generate a small churning simulated Internet,
2. poll it like a daemon: scan, ``sync`` the scan into the stream,
   ``flush`` an incremental report,
3. print every alias-set change event each emit returns, and
4. show that every streamed report is byte-identical to a from-scratch
   resolution of its poll's scan.

Run with::

    python examples/stream_watch.py
"""

from repro.core.engine import ResolutionEngine, report_signature
from repro.longitudinal import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream import AliasSetEvent, StreamConfig, StreamingEngine

SNAPSHOTS = 4
CHURN = 0.05


def make_campaign() -> LongitudinalCampaign:
    network = generate_topology(small_topology_config(seed=2024))
    return LongitudinalCampaign(
        network,
        config=LongitudinalConfig(
            snapshots=SNAPSHOTS, churn_fraction=CHURN, seed=7
        ),
    )


def describe(event) -> str:
    addresses = sorted(event.addresses)
    preview = ", ".join(addresses[:4]) + ("…" if len(addresses) > 4 else "")
    return f"  [{event.kind}] {event.family} {{{preview}}}"


def main() -> None:
    campaign = make_campaign()
    stream = StreamingEngine(StreamConfig(), options=campaign.options)

    polls = []
    for poll in range(SNAPSHOTS):
        capture = campaign.capture(poll)
        stream.sync(capture.observations)
        print(f"poll {poll}: scanned {len(capture.observations)} observations")
        update = stream.flush()
        polls.append((capture, update))
        # Each update carries its emit's events in order.  Print every
        # alias-set mutation but skip the per-emit coverage/report
        # bookkeeping events.
        for event in update.events:
            if isinstance(event, AliasSetEvent):
                print(describe(event))
        report = update.events[-1]
        print(
            f"  -> emit {update.emit} ({update.name}): "
            f"{report.ipv4_sets} IPv4 sets, +{report.added}/-{report.removed}, "
            f"churn~{update.churn_rate if update.churn_rate is not None else 'n/a'}"
        )

    estimate = stream.estimator.rate
    print(
        f"\nonline churn estimate after {stream.estimator.windows} windows: "
        f"{estimate:.3f} (ground truth {CHURN})"
    )
    print(f"events published: {stream.event_counts}")

    # Each streamed report equals a from-scratch resolution of its scan.
    engine = ResolutionEngine(campaign.options)
    for capture, update in polls:
        reference = engine.resolve(capture.observations, name=capture.name)
        assert report_signature(update.report) == report_signature(reference)
    print("\nstreamed reports match a from-scratch resolution signature for signature")


if __name__ == "__main__":
    main()
