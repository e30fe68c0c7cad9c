"""repro — reproduction of "Pushing Alias Resolution to the Limit" (IMC 2023).

The package implements a protocol-centric alias-resolution and dual-stack
inference system: scan SSH (TCP/22), BGP (TCP/179) and SNMPv3 (UDP/161),
extract host-wide identifiers from the application-layer responses, and group
addresses sharing an identifier into alias and dual-stack sets.  Everything
the paper's evaluation depends on — the scanned Internet, the scanners, the
Censys-like secondary data source, and the MIDAR/Ally/Speedtrap validators —
is implemented here as well, so the whole evaluation runs offline.

See :mod:`repro.core` for the public inference API, :mod:`repro.experiments`
for the drivers that regenerate each table and figure of the paper, the
README at the repository root for the system inventory, and
``repro experiments`` / ``repro claims`` for the measured results.
"""

__version__ = "1.0.0"
