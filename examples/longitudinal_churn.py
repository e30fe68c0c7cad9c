#!/usr/bin/env python3
"""Longitudinal campaign: watch alias sets churn across weekly snapshots.

The paper's MIDAR validation ran for three weeks and disagreed with the
SSH-derived alias sets for a few percent of the sampled sets — a
disagreement it attributes to addresses moving between devices during the
window.  This example makes that mechanism visible end to end:

1. generate a small simulated Internet,
2. run four weekly active-scan snapshots, reassigning 5% of all addresses
   to random devices between consecutive snapshots,
3. poll each snapshot into a streaming engine, which re-resolves it
   *incrementally* (replaying the observation delta instead of rebuilding
   the index) — the poll ``repro longitudinal`` runs — and
4. print the per-snapshot stability table plus one concrete migrated set.

Run with::

    python examples/longitudinal_churn.py
"""

import time

from repro.analysis.stability import stability_table_from
from repro.core.engine import ResolutionEngine, report_signature
from repro.longitudinal import CampaignLog, LongitudinalCampaign, LongitudinalConfig
from repro.net.addresses import AddressFamily
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream import StreamConfig, StreamingEngine


def main() -> None:
    network = generate_topology(small_topology_config(seed=2024))
    print(f"Simulated Internet: {len(network.devices())} devices, "
          f"{len(network.all_addresses())} addresses")

    campaign = LongitudinalCampaign(
        network,
        config=LongitudinalConfig(snapshots=4, churn_fraction=0.05, seed=7),
    )
    stream = StreamingEngine(
        StreamConfig(churn_interval=campaign.config.interval), options=campaign.options
    )
    log = CampaignLog()
    polls = []
    for snapshot in range(campaign.config.snapshots):
        # One poll: churn and scan, sync the scan, emit a report, log it.
        capture = campaign.capture(snapshot)
        stream.sync(capture.observations)
        update = stream.flush()
        log.record(campaign, capture, update)
        polls.append((capture, update))
    print()
    print(stability_table_from(
        log.stability[AddressFamily.IPV4], campaign.config, AddressFamily.IPV4
    ))

    # The incremental report is identical to a from-scratch resolution.
    last_capture, last_update = polls[-1]
    t0 = time.perf_counter()
    from_scratch = ResolutionEngine().resolve(
        last_capture.observations, name=last_capture.name
    )
    full_time = time.perf_counter() - t0
    assert report_signature(last_update.report) == report_signature(from_scratch)
    print(f"\nincremental report matches a from-scratch rebuild "
          f"(full rebuild takes {1000 * full_time:.0f} ms per snapshot at this scale)")

    # Show one churn-driven migration: a set that both lost and gained
    # addresses because an address moved to different hardware.
    for capture, update in polls[1:]:
        delta = update.resolution.ipv4_delta
        if delta.migrated:
            migrated = delta.migrated[0]
            print(f"\nsnapshot {capture.index}: migrated set "
                  f"{sorted(migrated)[:6]}{'…' if len(migrated) > 6 else ''}")
            overlap = sorted(migrated & capture.churned)
            if overlap:
                print(f"  churned members this interval: {overlap}")
            break


if __name__ == "__main__":
    main()
