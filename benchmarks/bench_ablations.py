"""Ablation benchmarks for the identifier design choices the README describes.

These are not paper tables; they quantify why the identifiers are built the
way they are:

* the SSH identifier with and without the algorithm-capability signature
  (shared factory keys are over-merged without it),
* the BGP identifier with and without hold time / capabilities, and
* the effect of single-vantage-point rate limiting on coverage
  (active vs Censys-like collection).
"""

from repro.analysis.tables import render_table
from repro.core.alias_resolution import AliasResolver
from repro.core.identifiers import IdentifierOptions
from repro.core.validation import ground_truth_accuracy
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType


def bench_ssh_capability_ablation(benchmark, scenario):
    """SSH identifier: host key only vs host key + capabilities + banner."""
    observations = list(scenario.dataset("union-ipv4"))
    truth = scenario.network.ground_truth_alias_sets(AddressFamily.IPV4)

    def run():
        results = {}
        for label, options in (
            ("key only", IdentifierOptions(ssh_include_banner=False, ssh_include_capabilities=False)),
            ("key + capabilities", IdentifierOptions(ssh_include_banner=False, ssh_include_capabilities=True)),
            ("full identifier", IdentifierOptions()),
        ):
            collection = AliasResolver(options).group(
                observations, protocol=ServiceType.SSH, family=AddressFamily.IPV4, name=label
            )
            metrics = ground_truth_accuracy(collection, truth)
            results[label] = (len(collection.non_singleton()), metrics["pair_precision"])
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["SSH identifier", "non-singleton sets", "alias-pair precision"],
        [[label, sets, f"{precision:.3f}"] for label, (sets, precision) in results.items()],
        title="Ablation: SSH identifier construction",
    ))
    # Adding the capability signature splits hosts that share factory-default
    # keys, so the fraction of inferred alias pairs that are true aliases
    # must improve (or at worst stay equal); it must never merge more.
    assert results["key + capabilities"][1] >= results["key only"][1]
    assert results["full identifier"][1] >= results["key only"][1]
    assert results["full identifier"][0] >= results["key only"][0]


def bench_bgp_field_ablation(benchmark, scenario):
    """BGP identifier: full OPEN fields vs BGP Identifier + ASN only."""
    observations = list(scenario.dataset("union-ipv4"))
    truth = scenario.network.ground_truth_alias_sets(AddressFamily.IPV4)

    def run():
        results = {}
        for label, options in (
            ("bgp id + asn only", IdentifierOptions(bgp_include_capabilities=False, bgp_include_hold_time=False)),
            ("full OPEN fields", IdentifierOptions()),
        ):
            collection = AliasResolver(options).group(
                observations, protocol=ServiceType.BGP, family=AddressFamily.IPV4, name=label
            )
            metrics = ground_truth_accuracy(collection, truth)
            results[label] = (len(collection.non_singleton()), metrics["pair_precision"])
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["BGP identifier", "non-singleton sets", "alias-pair precision"],
        [[label, sets, f"{precision:.3f}"] for label, (sets, precision) in results.items()],
        title="Ablation: BGP identifier construction",
    ))
    assert results["full OPEN fields"][1] >= results["bgp id + asn only"][1]


def bench_vantage_point_ablation(benchmark, scenario):
    """Coverage of a single rate-limited vantage point vs a distributed one."""
    def run():
        active_ssh = len(scenario.dataset("active-ipv4").addresses(ServiceType.SSH, AddressFamily.IPV4))
        censys_ssh = len(scenario.dataset("censys-standard").addresses(ServiceType.SSH, AddressFamily.IPV4))
        union_ssh = len(scenario.dataset("union-ipv4").addresses(ServiceType.SSH, AddressFamily.IPV4))
        return active_ssh, censys_ssh, union_ssh

    active_ssh, censys_ssh, union_ssh = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["Collection", "SSH IPv4 addresses"],
        [["active (single VP)", active_ssh], ["censys (distributed)", censys_ssh], ["union", union_ssh]],
        title="Ablation: vantage point strategy",
    ))
    assert censys_ssh >= active_ssh
    assert union_ssh >= censys_ssh
