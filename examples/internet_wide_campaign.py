#!/usr/bin/env python3
"""Internet-wide IPv4 campaign: active vantage point vs Censys vs union.

Reproduces the data-source comparison that runs through the paper's Tables 1
and 3: a single-vantage-point active scan is rate-limited by some networks'
intrusion detection, the distributed Censys-like snapshot is not, and the
union of both sources yields the most complete view.  The script also writes
the observations and the resulting alias sets to disk in the same formats
the library uses for published artifacts, in a temporary directory that is
removed when it exits.

Run with::

    python examples/internet_wide_campaign.py
"""

import tempfile
from pathlib import Path

from repro.analysis.report import alias_report_markdown
from repro.analysis.tables import render_table
from repro.api import ReproSession, ScenarioConfig
from repro.core.engine import ResolutionEngine
from repro.io.datasets import save_alias_sets, save_observations
from repro.simnet.device import ServiceType


def main() -> None:
    # Scale 0.5 keeps this example under ~10 seconds; raise it for more detail.
    session = ReproSession(ScenarioConfig(scale=0.5, seed=7))
    print(f"Simulated Internet: {len(session.network.devices())} devices, "
          f"{len(session.network.all_addresses())} addresses")

    sources = {
        "active": session.dataset("active-ipv4"),
        "censys": session.dataset("censys-standard"),
        "union": session.dataset("union-ipv4"),
    }
    rows = []
    for name, dataset in sources.items():
        report = ResolutionEngine().resolve(dataset, name=name)
        ssh_sets = report.ipv4[ServiceType.SSH].non_singleton()
        union_sets = report.ipv4_union.non_singleton()
        rows.append(
            [
                name,
                len(dataset.addresses(ServiceType.SSH)),
                len(ssh_sets),
                len(union_sets),
                len(union_sets.addresses()),
            ]
        )
    print()
    print(render_table(
        ["Source", "SSH IPs", "SSH alias sets", "All-protocol sets", "Covered IPs"],
        rows,
        title="Active vs Censys vs union (IPv4, non-singleton sets)",
    ))

    # Persist the union dataset and its alias sets like a published artifact.
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as directory:
        output_dir = Path(directory)
        observations_path = output_dir / "union_observations.jsonl"
        sets_path = output_dir / "union_alias_sets.json"
        union_report = session.report("union")
        save_observations(session.dataset("union-ipv4"), observations_path)
        save_alias_sets(union_report.ipv4_union, sets_path)
        print(f"\nWrote {observations_path}")
        print(f"Wrote {sets_path}")

        # A compact markdown report of everything the union data shows.
        markdown_path = output_dir / "report.md"
        markdown_path.write_text(alias_report_markdown(union_report, session.network.registry))
        print(f"Wrote {markdown_path}")


if __name__ == "__main__":
    main()
