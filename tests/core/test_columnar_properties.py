"""Property tests: the columnar core against the dict-backed reference model.

:class:`~repro.core.dictcore.DictObservationIndex` is the pre-columnar
``ObservationIndex`` implementation, kept verbatim as the correctness
oracle.  Hypothesis drives random interleavings of every public mutation —
``add``, ``remove`` and ``extend`` — through both cores in lockstep and
asserts the observable surfaces stay identical at every step:

* ``state_signature`` — identical decoded state, through to a final drain
  that removes every outstanding observation from both cores (which is
  where diverging ASN reference counts would show),
* derived reports — :func:`~repro.core.engine.report_signature` equality
  through :class:`~repro.core.engine.ResolutionEngine` (both cores expose
  the same ``alias_sets``/``dual_stack`` surface).

Both properties run under each of the 16 :class:`IdentifierOptions` (the
paper's identifier ablations): the columnar core keys on the identifier
value, the oracle on :func:`~repro.core.identifiers.extract_identifier`'s.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictcore import DictObservationIndex
from repro.core.engine import ObservationIndex, ResolutionEngine, report_signature
from repro.core.identifiers import IdentifierOptions
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

_IPV4 = [f"10.0.0.{i}" for i in range(1, 7)]
_IPV6 = [f"2001:db8::{i:x}" for i in range(1, 5)]
_DEVICES = ["alpha", "beta", "gamma"]


def _asn_for(address: str) -> int:
    """Deterministic per-address ASN (the documented stability constraint)."""
    return 65000 + sum(address.encode()) % 5


@st.composite
def _observation(draw):
    address = draw(st.sampled_from(_IPV4 + _IPV6))
    device = draw(st.sampled_from(_DEVICES))
    protocol = draw(st.sampled_from(list(ServiceType)))
    carries_identifier = draw(st.booleans())
    carries_asn = draw(st.booleans())
    if protocol is ServiceType.SSH:
        fields = (
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        ) if carries_identifier else ()
        port = 22
    elif protocol is ServiceType.SNMPV3:
        fields = (
            ("engine_boots", "1"),
            ("engine_id", f"engine-{device}"),
        ) if carries_identifier else ()
        port = 161
    else:
        fields = (
            ("asn", "65000"),
            ("bgp_identifier", f"198.51.100.{1 + sum(device.encode()) % 9}"),
            ("capabilities", ""),
            ("hold_time", "90"),
            ("message_length", "45"),
            ("version", "4"),
        ) if carries_identifier else ()
        port = 179
    return Observation(
        address=address,
        protocol=protocol,
        source="hypothesis",
        port=port,
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6)),
        asn=_asn_for(address) if carries_asn else None,
        fields=fields,
    )


_ADD, _REMOVE, _EXTEND = range(3)

#: Every combination of the identifier options, the default first.
_OPTIONS = [
    IdentifierOptions(*flags) for flags in itertools.product((True, False), repeat=4)
]


def _options_id(options: IdentifierOptions) -> str:
    """The options a combination turns off, or ``default``."""
    off = [name for name, on in dataclasses.asdict(options).items() if not on]
    return "without-" + "-".join(off) if off else "default"


_with_every_options = pytest.mark.parametrize("options", _OPTIONS, ids=_options_id)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just(_ADD), _observation()),
        st.tuples(st.just(_REMOVE), st.integers(min_value=0, max_value=2**16)),
        st.tuples(st.just(_EXTEND), st.lists(_observation(), max_size=6)),
    ),
    max_size=25,
)


def _apply(columnar, oracle, operations):
    """Drive both cores through ``operations``; compare after every step."""
    added: list[Observation] = []
    for operation, payload in operations:
        if operation == _ADD:
            assert columnar.add(payload) == oracle.add(payload)
            added.append(payload)
        elif operation == _REMOVE:
            if not added:
                continue
            observation = added.pop(payload % len(added))
            assert columnar.remove(observation) == oracle.remove(observation)
        else:  # _EXTEND
            columnar.extend(payload)
            oracle.extend(payload)
            added.extend(payload)
        assert columnar.state_signature() == oracle.state_signature()
    return added


@_with_every_options
@settings(max_examples=60, deadline=None)
@given(operations=_operations)
def test_random_mutations_match_reference_model(options, operations):
    columnar = ObservationIndex(options)
    oracle = DictObservationIndex(options)
    outstanding = _apply(columnar, oracle, operations)
    assert columnar.observed == oracle.observed
    assert columnar.indexed == oracle.indexed
    for observation in outstanding:
        assert columnar.remove(observation) == oracle.remove(observation)
        assert columnar.state_signature() == oracle.state_signature()
    assert columnar.state_signature() == {
        "observed": 0,
        "indexed": 0,
        "members": {},
        "asn": {},
    }


@_with_every_options
@settings(max_examples=40, deadline=None)
@given(operations=_operations)
def test_derived_reports_match_reference_model(options, operations):
    columnar = ObservationIndex(options)
    oracle = DictObservationIndex(options)
    _apply(columnar, oracle, operations)
    engine = ResolutionEngine(options)
    assert report_signature(engine.report(columnar, name="x")) == report_signature(
        engine.report(oracle, name="x")
    )
