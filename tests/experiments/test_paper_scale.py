"""The paper's headline shape, checked at its own scale (1.0, seed 42).

The drivers' unit tests run at scale 0.25, where several effects (coverage
gaps, rate limiting) have not emerged yet.  This module holds the
assertions that only make sense at the paper's scale: every headline claim
holds, each table and figure has the paper's shape, the identifier
ablations justify the identifiers' construction, and a saved session
renders every experiment byte-identically after reload.  All of it reads
the one shared ``paper_session``.
"""

import pytest

from repro.api import ReproSession
from repro.core.engine import ResolutionEngine
from repro.core.identifiers import IdentifierOptions
from repro.core.validation import ground_truth_accuracy
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.net.addresses import AddressFamily
from repro.simnet.asn import AsRole
from repro.simnet.device import ServiceType


def test_every_headline_claim_holds(paper_session):
    claims = paper_session.claims()
    assert len(claims) == 10
    assert [claim.identifier for claim in claims if not claim.holds] == []


class TestTables:
    def test_table1_service_coverage(self, paper_session):
        result = table1.build(paper_session)
        ssh, bgp, snmp = (result.row(name) for name in ("SSH", "BGP", "SNMPv3"))
        # SSH dwarfs BGP in responsive IPs; the union is at least as large as
        # either source; Censys covers SSH at least as well as the
        # rate-limited single vantage point.
        assert ssh.active_ips > bgp.active_ips
        assert ssh.union_ips >= max(ssh.active_ips, ssh.censys_ips)
        assert ssh.censys_ips >= ssh.active_ips
        assert snmp.active_ips > 0
        # IPv6 coverage is much smaller than IPv4 (hitlist-limited).
        assert result.row("SSH (IPv6)", family="ipv6").active_ips < ssh.active_ips

    def test_table2_validation_agreement(self, paper_session):
        result = table2.build(paper_session)
        # Every cross-protocol pair agrees on >= 90% of comparable sets; MIDAR
        # tests only a fraction of the sampled SSH sets but agrees with most.
        for pair in ("SSH-BGP", "SSH-SNMPv3", "BGP-SNMPv3"):
            row = result.row(pair)
            assert row.sample_size > 0, pair
            assert row.agreement_rate >= 0.9, pair
        midar = result.row("SSH-MIDAR")
        assert result.midar_coverage < 0.6
        assert midar.sample_size > 0
        assert midar.agreement_rate >= 0.8

    def test_table3_alias_sets(self, paper_session):
        result = table3.build(paper_session)
        ssh_union = result.row("ipv4", "SSH", "union")
        snmp_union = result.row("ipv4", "SNMPv3", "union")
        bgp_union = result.row("ipv4", "BGP", "union")
        ssh_active = result.row("ipv4", "SSH", "active")
        ssh_censys = result.row("ipv4", "SSH", "censys")
        # Headline: the union finds roughly twice the IPv4 alias sets of
        # SNMPv3 alone, and most sets come from SSH.
        assert result.row("ipv4", "Union", "union").sets >= 1.8 * snmp_union.sets
        assert ssh_union.sets > snmp_union.sets > bgp_union.sets
        # Censys adds substantial SSH coverage over the active scan alone.
        assert ssh_censys.sets > ssh_active.sets
        assert ssh_union.sets >= max(ssh_active.sets, ssh_censys.sets)
        assert result.union_ssh_bgp_share > 0.5
        # IPv6: SSH contributes the most sets.
        assert (
            result.row("ipv6", "SSH", "active").sets
            >= result.row("ipv6", "SNMPv3", "active").sets
        )

    def test_table4_dual_stack_sets(self, paper_session):
        result = table4.build(paper_session)
        ssh, bgp, snmp, union = (
            result.row(name) for name in ("SSH", "BGP", "SNMPv3", "Union")
        )
        # Headline: SSH finds an order of magnitude more dual-stack sets than
        # the SNMPv3 baseline (paper: ~30x).
        assert ssh.sets >= 10 * max(snmp.sets, 1)
        assert union.sets >= ssh.sets
        assert ssh.sets > bgp.sets
        assert result.ssh_bgp_share > 0.9
        # Most sets pair a single IPv4 with a single IPv6 address.
        assert result.one_to_one_share > 0.5

    def test_table5_top_ipv4_ases(self, paper_session):
        result = table5.build(paper_session)
        # Cloud providers dominate the SSH and union top-10s, ISPs the BGP
        # and SNMPv3 ones.
        assert result.cloud_share("SSH") >= 0.6
        assert result.cloud_share("Union") >= 0.5
        assert result.role_counts("BGP").get(AsRole.ISP, 0) >= 6
        assert result.role_counts("SNMPv3").get(AsRole.ISP, 0) >= 6

    def test_table6_top_ipv6_and_dual_stack_ases(self, paper_session):
        result = table6.build(paper_session)
        # Cloud providers lead the dual-stack top-10 and the top three ASes
        # hold a large share of all dual-stack sets.
        assert result.role_counts("dual").get(AsRole.CLOUD, 0) >= 3
        assert result.top3_dual_stack_share >= 0.3
        assert result.ipv6_entries and result.dual_stack_entries


class TestFigures:
    def test_figure3_ipv4_set_sizes(self, paper_session):
        result = figure3.build(paper_session)
        # Over 60% of SSH sets hold exactly two addresses; BGP and SNMPv3
        # sets are larger; every curve sits mostly below 100.
        assert result.curve("Active SSH").fraction_exactly_two() > 0.6
        assert result.curve("Active BGP").fraction_exactly_two() < 0.35
        assert result.curve("Active SNMPv3").fraction_exactly_two() < 0.35
        for curve in result.curves.values():
            if curve.set_count:
                assert curve.fraction_under_hundred() > 0.9

    def test_figure4_ipv6_set_sizes(self, paper_session):
        result = figure4.build(paper_session)
        ssh = result.curves["Active SSH"]
        snmp = result.curves["Active SNMPv3"]
        # SSH sets are more numerous and no larger than the router-based
        # SNMPv3 sets; all curves concentrate below 100.
        assert len(ssh) > len(snmp)
        assert len(ssh) > len(result.curves["Active BGP"])
        assert len(snmp) > 0
        assert ssh.median() <= snmp.median()
        for ecdf in result.curves.values():
            if len(ecdf):
                assert ecdf.evaluate(99) > 0.9

    def test_figure5_ases_per_set(self, paper_session):
        fractions = figure5.build(paper_session).multi_as_fractions
        # Few SSH and SNMPv3 sets span several ASes; many BGP sets do.
        assert fractions["SSH"] < 0.1
        assert fractions["SNMPv3"] < 0.15
        assert fractions["BGP"] > 0.35

    def test_figure6_sets_per_as(self, paper_session):
        result = figure6.build(paper_session)
        # Most ASes hold few sets; every AS holding a dual-stack set also
        # holds an alias set.
        assert result.ases_with_alias_sets > 0
        assert result.fraction_ases_over_hundred < 0.2
        assert result.alias_sets_per_as.evaluate(100) > 0.8
        assert result.ases_with_dual_stack_sets <= result.ases_with_alias_sets


class TestAblations:
    """Why the identifiers are built the way they are."""

    @pytest.fixture(scope="class")
    def resolve(self, paper_session):
        """Resolve the IPv4 union dataset under one identifier construction.

        Returns the protocol's non-singleton set count and the pair
        precision of its sets against the simulator's true devices.
        """
        observations = list(paper_session.dataset("union-ipv4"))
        truth = paper_session.network.ground_truth_alias_sets(AddressFamily.IPV4)

        def run(protocol, **options):
            report = ResolutionEngine(IdentifierOptions(**options)).resolve(observations)
            collection = report.ipv4[protocol]
            precision = ground_truth_accuracy(collection, truth)["pair_precision"]
            return len(collection.non_singleton()), precision

        return run

    def test_ssh_capability_signature(self, resolve):
        key_only = resolve(
            ServiceType.SSH, ssh_include_banner=False, ssh_include_capabilities=False
        )
        with_capabilities = resolve(ServiceType.SSH, ssh_include_banner=False)
        full = resolve(ServiceType.SSH)
        # The capability signature splits hosts sharing factory-default keys:
        # pair precision never drops, and no sets are merged away.
        assert with_capabilities[1] >= key_only[1]
        assert full[1] >= key_only[1]
        assert full[0] >= key_only[0]

    def test_bgp_open_fields(self, resolve):
        id_and_asn = resolve(
            ServiceType.BGP, bgp_include_capabilities=False, bgp_include_hold_time=False
        )
        assert resolve(ServiceType.BGP)[1] >= id_and_asn[1]

    def test_vantage_point_coverage(self, paper_session):
        def ssh_addresses(source):
            dataset = paper_session.dataset(source)
            return len(dataset.addresses(ServiceType.SSH, AddressFamily.IPV4))

        # A distributed vantage (Censys) sees at least what one rate-limited
        # vantage does, and the union at least as much again.
        active, censys, union = map(
            ssh_addresses, ("active-ipv4", "censys-standard", "union-ipv4")
        )
        assert censys >= active
        assert union >= censys


def test_saved_session_renders_identically(paper_session, paper_experiments, tmp_path):
    paper_session.save(tmp_path / "session")
    assert ReproSession.load(tmp_path / "session").run_experiments() == paper_experiments
