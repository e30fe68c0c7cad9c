"""Benchmarks of the scanning substrate against the simulated Internet.

These report how many addresses per second the two scan phases sustain —
useful for choosing a scenario scale — and double as end-to-end smoke tests
of the probe path (liveness scan, application grab, alias grouping).
"""

from repro.core.alias_resolution import AliasResolver
from repro.net.addresses import AddressFamily
from repro.scanner.zgrab import ZgrabScanner
from repro.scanner.zmap import ZmapScanner
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint

VP = VantagePoint(name="bench-vp", distributed=True)


def bench_zmap_syn_scan(benchmark, scenario):
    network = scenario.network
    targets = sorted(network.all_addresses(AddressFamily.IPV4))[:4000]
    scanner = ZmapScanner(network, VP, seed=3)

    result = benchmark.pedantic(lambda: scanner.scan(targets, 22), rounds=1, iterations=1)
    print(f"\nSYN scan: {result.probed} probes, {len(result.responsive)} responsive")
    assert result.probed == len(targets)


def bench_zgrab_ssh_grab(benchmark, scenario):
    network = scenario.network
    ssh_addresses = [
        address
        for device in network.devices()
        for address in device.service_addresses(ServiceType.SSH)
        if ":" not in address
    ][:1500]
    grabber = ZgrabScanner(network, VP)

    records = benchmark.pedantic(lambda: grabber.grab(ServiceType.SSH, ssh_addresses), rounds=1, iterations=1)
    print(f"\nSSH grab: {len(records)} records from {len(ssh_addresses)} targets")
    assert len(records) >= 0.8 * len(ssh_addresses)


def bench_alias_grouping_throughput(benchmark, scenario):
    observations = list(scenario.dataset("union-ipv4"))
    resolver = AliasResolver()

    collection = benchmark(lambda: resolver.group(observations, protocol=ServiceType.SSH, family=AddressFamily.IPV4))
    assert len(collection) > 0
