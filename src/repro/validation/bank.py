"""The shared IPID sample bank.

MIDAR, Ally and Speedtrap all reduce to the same primitive: collect an IPID
time series from a target on some probing schedule and reason about the
merged sequences, so validating one candidate set with two techniques need
not pay for two probing campaigns against the same targets.

:class:`IpidSampleBank` banks every series it collects and shares it
across validators: a composed validation (e.g. MIDAR followed by Ally over
the same sampled sets, see :mod:`repro.validation.runner`) answers the
second technique's sample requests from the bank instead of the network.
It has one read per kind of evidence, and each is schedule-agnostic: an
estimation is served from the canonical series of its (address, schedule
shape), and a pair from the latest interleaved collection that probed it
(the pair map).  Both serve only evidence within a caller-given
``max_age`` of the read (the pipelines pass
:data:`~repro.validation.budget.DEFAULT_VELOCITY_TTL`), so a banked sample
never stands in for one taken across churn; anything else probes.

The bank is a validation run's one store and one reuse of IPID evidence:
nothing else memoises a sample or a classification of one, and a session
reloaded with its banks re-scores from them with zero fresh probes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.baselines.ipid import IpidTimeSeries, collect_interleaved, shared_counter_test
from repro.errors import PersistError, ValidationError
from repro.jsonvalues import json_boolean, json_integer, json_number, json_string
from repro.simnet.network import SimulatedInternet, VantagePoint

#: Key of one banked series or interleaved collection: its kind, its
#: addresses, its schedule and its start time.
ScheduleKey = tuple


class IpidSampleBank:
    """Bank the IPID time series validators collect, and share them.

    One bank wraps one (network, vantage) pair — samples taken from
    different vantage points see different loss and rate-limit state, so
    they must not be conflated.  A :class:`~repro.validation.runner.
    ValidationRun`, and so a session, holds one bank, of
    :data:`~repro.validation.runner.VALIDATION_VANTAGE`.  Cached series are
    treated as immutable.
    """

    def __init__(self, network: SimulatedInternet | None, vantage: VantagePoint) -> None:
        #: ``None`` until :meth:`bind` attaches one, or until the first miss
        #: fetches it through the bound ``_connect``.
        self._network = network
        self._connect: Callable[[], SimulatedInternet] | None = None
        self._vantage = vantage
        self._series: dict[ScheduleKey, IpidTimeSeries] = {}
        self._interleaved: dict[ScheduleKey, dict[str, IpidTimeSeries]] = {}
        #: unordered pair -> key of the latest interleaved collection that
        #: probed both addresses together (schedule-agnostic pair reuse).
        self._pairs: dict[frozenset[str], ScheduleKey] = {}
        #: (address, samples, interval) -> key of the canonical estimation
        #: series for that schedule shape, whatever its start time: the
        #: latest collection, which serves every validator whose estimation
        #: window aligns (same sample count and spacing).
        self._estimation: dict[tuple[str, int, float], ScheduleKey] = {}
        self._probes_issued = 0
        self._probes_reused = 0

    def _count(self, outcome: str, probes: int) -> None:
        """Track one collection's probe spend (private tally + registry).

        Called per *collection* (a batch of probes), never per probe, so
        the counter cost stays off the simulated-network hot path.
        """
        if outcome == "issued":
            self._probes_issued += probes
        else:
            self._probes_reused += probes
        if obs.is_enabled():
            obs.add(
                "validation.probes", probes, outcome=outcome, vantage=self._vantage.name
            )

    def _live_network(self) -> SimulatedInternet:
        """The network a miss probes, fetched through the binding at the first miss."""
        if self._network is None:
            if self._connect is None:
                raise ValidationError(
                    f"the sample bank of vantage {self._vantage.name!r} missed "
                    "and is bound to no network"
                )
            self._network = self._connect()
        return self._network

    @property
    def vantage(self) -> VantagePoint:
        """The vantage point every collection probes from."""
        return self._vantage

    @property
    def probes_issued(self) -> int:
        """Probes actually sent to the network (responses and timeouts)."""
        return self._probes_issued

    @property
    def probes_reused(self) -> int:
        """Probes answered from the bank instead of the network."""
        return self._probes_reused

    def interleaved(
        self,
        addresses: Sequence[str],
        rounds: int,
        interval: float,
        start_time: float,
    ) -> dict[str, IpidTimeSeries]:
        """A fresh round-robin interleaved collection over ``addresses``,
        banked as the one :meth:`cached_interleaved` serves for their pairs."""
        members = tuple(addresses)
        key = ("interleaved", members, rounds, interval, start_time)
        collected = collect_interleaved(
            self._live_network(),
            list(members),
            self._vantage,
            rounds=rounds,
            interval=interval,
            start_time=start_time,
        )
        self._count("issued", rounds * len(members))
        self._interleaved[key] = collected
        for position, left in enumerate(members):
            for right in members[position + 1 :]:
                self._pairs[frozenset((left, right))] = key
        return collected

    def cached_interleaved(
        self,
        left: str,
        right: str,
        requested_probes: int,
        now: float,
        max_age: float,
    ) -> dict[str, IpidTimeSeries] | None:
        """The latest banked interleaved collection that probed both addresses.

        Schedule-agnostic: this is how a second technique (Ally) reuses the
        series a first one (MIDAR corroboration) already paid for.  A
        collection started more than ``max_age`` simulated seconds from
        ``now`` is *not* served: the read returns ``None`` and the caller
        probes live, so pair evidence is never reused across churn.

        ``requested_probes`` is what the caller's own schedule would have
        issued for this pair — the quantity a hit adds to
        :attr:`probes_reused`, so the counter means "probes not sent
        thanks to the bank", as it does for an estimation read.
        """
        key = self._pairs.get(frozenset((left, right)))
        if key is None or abs(now - float(key[4])) > max_age:
            return None
        self._count("reused", requested_probes)
        return self._interleaved[key]

    # ------------------------------------------------------------------ #
    # Canonical estimation (the shared estimation stage)
    # ------------------------------------------------------------------ #
    def estimation_free(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        max_age: float,
    ) -> bool:
        """Whether :meth:`estimation_series` would be served without probing.

        The probe-budget scheduler's pre-check: a ``True`` answer means the
        matching read mutates nothing but the reuse counters, so it stays
        allowed even after the budget closes.
        """
        canonical = self._estimation.get((address, samples, interval))
        return canonical is not None and abs(start_time - float(canonical[4])) <= max_age

    def estimation_series(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        max_age: float,
        early_stop: tuple[int, float],
    ) -> tuple[IpidTimeSeries, int]:
        """One canonical estimation read per (address, schedule shape).

        This serves *any* banked canonical collection whose window aligns
        (same sample count and interval) and is no older than ``max_age``
        relative to ``start_time`` — MIDAR and Speedtrap estimation read
        from one schedule per vantage instead of collecting per-validator
        series.  A staleness-expired canonical entry is never silently
        reused: the read collects live, and that collection becomes the
        new canonical series.

        ``early_stop=(min_responses, max_velocity)`` lets a *fresh*
        collection stop as soon as the caller's
        :func:`~repro.baselines.ipid.classify_series` outcome is already
        decided (see :meth:`_collect_estimation`); banked reads are
        unaffected.

        Returns ``(series, issued)`` where ``issued`` counts the fresh
        network probes spent (the quantity a probe budget must be charged
        and the simulated clock advanced for; zero for a read served from
        the bank).
        """
        canonical = self._estimation.get((address, samples, interval))
        if canonical is not None and abs(start_time - float(canonical[4])) <= max_age:
            self._count("reused", samples)
            return self._series[canonical], 0
        key = ("series", address, samples, interval, start_time)
        issued_before = self._probes_issued
        collected = self._series[key] = self._collect_estimation(
            address, samples, interval, start_time, *early_stop
        )
        self._estimation[(address, samples, interval)] = key
        return collected, self._probes_issued - issued_before

    def _collect_estimation(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        min_responses: int,
        max_velocity: float,
    ) -> IpidTimeSeries:
        """Collect an estimation series, stopping once its class is decided.

        :func:`~repro.baselines.ipid.shared_counter_test` is adjacency
        based: a bound violation between two consecutive responses stays a
        violation no matter what is appended afterwards, and the response
        count only grows.  So once the collected prefix already fails the
        test with ``min_responses`` responses in hand,
        :func:`~repro.baselines.ipid.classify_series` is guaranteed to
        return ``NON_MONOTONIC`` for the full series — the remaining
        probes buy no information and are skipped.  (Random-IPID targets,
        the bulk of real candidate sets, almost always violate the bound
        within the first few samples.)  The truncated series is banked as
        the canonical collection for this schedule shape, which is safe
        for every consumer classifying under the same or a stricter
        ``max_velocity``: a violation of a looser bound implies one of any
        tighter bound, and velocities are only ever read for ``USABLE``
        addresses, which are never truncated.
        """
        network = self._live_network()
        series = IpidTimeSeries(address=address)
        issued = 0
        for index in range(samples):
            timestamp = start_time + index * interval
            series.add(timestamp, network.sample_ipid(address, self._vantage, now=timestamp))
            issued += 1
            if series.response_count >= min_responses and not shared_counter_test(
                series.samples, max_velocity=max_velocity
            ):
                break
        self._count("issued", issued)
        return series

    # ------------------------------------------------------------------ #
    # State export/restore (persisted sample banks)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The bank's collected samples and accounting as plain JSON data.

        Everything a reloaded session needs to re-score candidate sets
        offline: the vantage identity, every collected series and
        interleaved collection (with their exact schedule keys), the
        pair-reuse and canonical-estimation maps, and the probe counters.
        ``from_state`` inverts it exactly; :mod:`repro.persist.bank` wraps
        the state in a signature-verified document.
        """
        interleaved_keys = list(self._interleaved)
        key_positions = {key: position for position, key in enumerate(interleaved_keys)}
        return {
            "vantage": {
                "name": self._vantage.name,
                "address": self._vantage.address,
                "distributed": self._vantage.distributed,
            },
            "probes_issued": self._probes_issued,
            "probes_reused": self._probes_reused,
            "series": [
                {
                    "address": key[1],
                    "samples": key[2],
                    "interval": key[3],
                    "start_time": key[4],
                    "points": [[timestamp, value] for timestamp, value in series.samples],
                }
                for key, series in self._series.items()
            ],
            "interleaved": [
                {
                    "members": list(key[1]),
                    "rounds": key[2],
                    "interval": key[3],
                    "start_time": key[4],
                    "points": {
                        address: [[timestamp, value] for timestamp, value in series.samples]
                        for address, series in collection.items()
                    },
                }
                for key, collection in self._interleaved.items()
            ],
            "pairs": [
                [sorted(pair)[0], sorted(pair)[1], key_positions[key]]
                for pair, key in self._pairs.items()
            ],
            "estimation": [
                [address, samples, interval, key[4]]
                for (address, samples, interval), key in self._estimation.items()
            ],
        }

    def bind(
        self, network: SimulatedInternet | Callable[[], SimulatedInternet]
    ) -> "IpidSampleBank":
        """Attach the network this bank probes on a miss.

        ``network`` is the network itself, or a callable that returns it.
        The bank calls a callable at its first miss, not here, so a bank
        that answers every read from its restored samples never asks for
        a network: that is how a session re-scores from saved banks
        without building the topology.
        """
        if callable(network):
            self._network, self._connect = None, network
        else:
            self._network, self._connect = network, None
        return self

    @classmethod
    def from_state(cls, state: dict) -> "IpidSampleBank":
        """Rebuild a bank from :meth:`export_state` output, unbound.

        The restored bank answers every read its saved counterpart could —
        canonical-estimation and pair-wise — without touching the network,
        which is what makes reloaded sessions re-score candidate sets with
        zero probes.  A miss needs a network, which
        :meth:`bind` attaches; a session binds a callable that builds the
        topology at the first miss, so neither a load nor a re-score that
        never misses builds it.  A miss on an unbound bank raises
        :class:`~repro.errors.ValidationError`.

        Raises:
            PersistError: when an entry of ``state`` is missing or of the
                wrong type, a number is not finite, a pair names a position
                outside ``interleaved``, or an estimation entry names no
                banked series.
        """
        try:
            return cls._parse(state)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise PersistError(f"malformed bank state: {exc!r}") from exc

    @classmethod
    def _parse(cls, state: dict) -> "IpidSampleBank":
        vantage = VantagePoint(
            name=json_string(state["vantage"]["name"]),
            address=json_string(state["vantage"]["address"]),
            distributed=json_boolean(state["vantage"]["distributed"]),
        )
        bank = cls(None, vantage)
        bank._probes_issued = json_integer(state["probes_issued"])
        bank._probes_reused = json_integer(state["probes_reused"])
        for entry in state["series"]:
            key = (
                "series",
                json_string(entry["address"]),
                json_integer(entry["samples"]),
                json_number(entry["interval"]),
                json_number(entry["start_time"]),
            )
            bank._series[key] = IpidTimeSeries(address=key[1], samples=_points(entry["points"]))
        interleaved_keys: list[ScheduleKey] = []
        for entry in state["interleaved"]:
            key = (
                "interleaved",
                tuple(json_string(address) for address in entry["members"]),
                json_integer(entry["rounds"]),
                json_number(entry["interval"]),
                json_number(entry["start_time"]),
            )
            bank._interleaved[key] = {
                json_string(address): IpidTimeSeries(address=address, samples=_points(points))
                for address, points in entry["points"].items()
            }
            interleaved_keys.append(key)
        for left, right, position in state["pairs"]:
            if not 0 <= json_integer(position) < len(interleaved_keys):
                raise ValueError(f"pair position {position} is outside interleaved")
            bank._pairs[frozenset((json_string(left), json_string(right)))] = interleaved_keys[position]
        for address, samples, interval, start_time in state["estimation"]:
            key = (
                "series",
                json_string(address),
                json_integer(samples),
                json_number(interval),
                json_number(start_time),
            )
            if key not in bank._series:
                raise ValueError(f"estimation entry {key[1:]} names no banked series")
            bank._estimation[key[1:4]] = key
        return bank


def _points(points: list) -> list[tuple[float, int]]:
    """One series' ``[timestamp, ipid]`` samples."""
    return [(json_number(timestamp), json_integer(value)) for timestamp, value in points]
