"""Experiment drivers: one module per table and figure of the paper.

Every driver exposes ``build(session)`` returning a result dataclass and
``render(result)`` returning the table as text.  The shared
:class:`~repro.api.session.ReproSession` performs the expensive part once
(topology generation, active campaign, Censys snapshot, IPv6 hitlist
scan, alias resolution); the drivers only aggregate.

Mapping to the paper:

=============  ==========================================================
Module         Paper content
=============  ==========================================================
``table1``     Table 1 — service scanning dataset overview
``table2``     Table 2 — alias set validation (cross-protocol and MIDAR)
``table3``     Table 3 — alias sets overview
``table4``     Table 4 — dual-stack sets
``table5``     Table 5 — top 10 ASes for IPv4 alias sets
``table6``     Table 6 — top 10 ASes for IPv6 / dual-stack sets
``figure3``    Figure 3 — ECDF of IPv4 addresses per alias set
``figure4``    Figure 4 — ECDF of IPv6 addresses per alias set
``figure5``    Figure 5 — ECDF of ASes per IPv4 alias set
``figure6``    Figure 6 — ECDF of alias / dual-stack sets per AS
=============  ==========================================================
"""
