"""File primitives shared by the persist modules.

Every persisted artifact is written atomically (temp file + ``os.replace``)
so an interrupted save never destroys a previously valid file, and every
JSON document is read through one helper so missing files, unreadable
files and invalid JSON all surface as :class:`~repro.errors.PersistError`
with consistent wording.  A document whose signature a manifest pins is
read through :func:`read_pinned_document`, which is how every loader
detects a save torn between a data file and its manifest.  Source and
validator spec trees are written with :func:`spec_to_document` and read
through :func:`read_spec`, identifier options through
:func:`read_identifier_options` and configs through :func:`read_config`.
A dataset file a load verified against its SHA-256 pin is re-saved with
:func:`copy_pinned`, which checks the pin again and writes the same
bytes through :func:`write_atomic`.

Durability: a save survives the process dying at any write (the crash
sweeps in ``tests/persist/`` kill a save at each ``os.replace``).  Nothing
here calls ``fsync``, which measured 27–30 ms per write on ext4, so a
power loss may lose or empty a file written shortly before it.  A
checkpoint's manifest is a relative symbolic link swapped onto a
per-generation file with :func:`link_atomic`; see
:mod:`repro.persist.stream`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from repro.api.config import ScenarioConfig
from repro.core.identifiers import IdentifierOptions
from repro.errors import PersistError, SimulationError
from repro.simnet.topology import TopologyConfig
from repro.sources.censys import CENSYS_MISS_RATE
from repro.sources.hitlist import HitlistConfig

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.sources import SourceSpec
    from repro.sources.records import ObservationDataset
    from repro.validation.spec import ValidatorSpec

SpecT = TypeVar("SpecT")
ConfigT = TypeVar("ConfigT")
Parsed = TypeVar("Parsed")

#: The value types a spec parameter may hold (the specs' ``ParamValue``).
_PARAM_TYPES = (str, int, float, bool)


def write_atomic(path: str | Path, text: str | bytes) -> None:
    """Write ``text`` then atomically replace ``path`` (parents created).

    ``text`` is encoded as UTF-8; ``bytes`` are written as they are, which
    is how :func:`copy_pinned` copies a file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    if isinstance(text, bytes):
        temporary.write_bytes(text)
    else:
        temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)


def copy_pinned(source: Path, digest: str, target: Path) -> bool:
    """Copy ``source`` to ``target`` atomically if its bytes match ``digest``.

    ``digest`` is the SHA-256 pin the bytes were checked against when the
    file was last loaded or written.  Returns ``False``, writing nothing,
    when ``source`` is gone, unreadable, or no longer matches the pin:
    the caller then writes the data itself.
    """
    try:
        data = source.read_bytes()
    except OSError:
        return False
    if hashlib.sha256(data).hexdigest() != digest:
        return False
    write_atomic(target, data)
    return True


def link_atomic(path: str | Path, target: str) -> None:
    """Point the symbolic link ``path`` at ``target`` in one atomic swap.

    ``target`` is a file name in ``path``'s directory, so the link stays
    valid when the directory is copied with its links or moved.  The link
    is made under ``path``'s temp name, removing a temp a crashed save
    left, and then replaces whatever ``path`` is: the previous link, or a
    regular file an older save wrote.
    """
    path = Path(path)
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.unlink(missing_ok=True)
    os.symlink(target, temporary)
    os.replace(temporary, path)


def save_observations_atomic(dataset: "ObservationDataset", path: str | Path) -> int:
    """Atomic :func:`repro.io.datasets.save_observations` (temp + replace)."""
    from repro.io.datasets import save_observations

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    count = save_observations(dataset, temporary)
    os.replace(temporary, path)
    return count


def read_json_document(path: str | Path, what: str) -> dict[str, Any]:
    """Read one JSON document, translating every failure to PersistError.

    The document must be a JSON object: every persisted artifact is a
    versioned mapping, so a bare array/scalar at the top level is corrupt.
    """
    path = Path(path)
    if not path.exists():
        raise PersistError(f"{what} {path} does not exist")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PersistError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistError(f"{what} {path} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise PersistError(f"{what} {path} is not valid JSON") from exc
    if not isinstance(document, dict):
        raise PersistError(f"{what} {path} is not a JSON object")
    return document


def read_pinned_document(
    path: str | Path, what: str, signature: str | None, owner: str
) -> dict[str, Any]:
    """Read a JSON document and check it against its manifest's pin.

    ``signature`` is the digest the ``owner`` manifest recorded for the
    document (``None`` when the manifest predates pinning: nothing to
    compare).  A mismatch means the document and the manifest come from
    different saves.

    Raises:
        PersistError: when the document is unreadable (see
            :func:`read_json_document`) or its signature is not the pinned one.
    """
    document = read_json_document(path, what)
    if signature is not None and document.get("signature") != signature:
        raise PersistError(
            f"{what} {path} does not match the {owner} manifest "
            f"(manifest {str(signature)[:12]}…, file {str(document.get('signature'))[:12]}…); "
            f"the {owner} was likely torn mid-save"
        )
    return document


def read_field(value: object, parse: Callable[[object], Parsed], field: str, where: str) -> Parsed:
    """``parse(value)``; a value of the wrong JSON type or out of range fails
    naming ``field`` of the ``where`` it was read from."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise PersistError(f"malformed {where}: {field} {exc}") from exc


def read_identifier_options(document: object, what: str) -> IdentifierOptions:
    """The identifier options of a ``what``, every one a JSON ``true`` or ``false``.

    The resolver tests each option by truthiness, so a coerced ``"no"``
    would quietly turn an option on.  An unknown option name raises
    ``TypeError``, which the ``what``'s reader wraps in its PersistError.
    """
    if not isinstance(document, dict) or not all(
        isinstance(value, bool) for value in document.values()
    ):
        raise PersistError(
            f"malformed {what}: identifier options {document!r} are not all booleans"
        )
    return IdentifierOptions(**document)


def read_config(
    config_type: Callable[..., ConfigT],
    document: object,
    name: str,
    fields: tuple[str, ...],
    fixed: Mapping[str, object],
    what: str,
) -> ConfigT:
    """The config object ``name`` of a ``what``: ``config_type`` of its ``fields``.

    Each field is required, and ``config_type`` checks it.  A key of
    ``fixed`` names a setting that is no longer a field: it loads only at
    the value it is fixed at.  Any other value, a refused field or an
    unknown key raises PersistError naming the key.
    """
    if not isinstance(document, dict):
        raise PersistError(f"malformed {what}: {name} {document!r} is not an object")
    for key, value in document.items():
        if key in fixed and (isinstance(value, bool) or value != fixed[key]):
            raise PersistError(f"malformed {what}: {name}.{key} is {value!r}, but it is fixed at {fixed[key]!r}")
        if key not in fixed and key not in fields:
            raise PersistError(f"malformed {what}: {name} has an unknown key {key!r}")
    missing = [key for key in fields if key not in document]
    if missing:
        raise PersistError(f"malformed {what}: {name} has no {', '.join(missing)}")
    try:
        return config_type(**{key: document[key] for key in fields})
    except (ValueError, SimulationError) as exc:
        raise PersistError(f"malformed {what}: {name}.{exc}") from exc


def read_scenario(document: object, name: str, what: str) -> ScenarioConfig:
    """The scenario config a session (``config``) or checkpoint (``scenario``)
    holds; the rates and coverages it once had load at their fixed values."""
    fixed = {
        "loss_rate": TopologyConfig.loss_rate,
        "hitlist_server_coverage": HitlistConfig.server_coverage,
        "hitlist_router_coverage": HitlistConfig.router_coverage,
        "censys_miss_rate": CENSYS_MISS_RATE,
    }
    return read_config(ScenarioConfig, document, name, ("scale", "seed"), fixed, what)


def spec_to_document(spec: "SourceSpec | ValidatorSpec") -> dict[str, Any]:
    """Render a source or validator spec tree as the document :func:`read_spec` reads."""
    return {
        "kind": spec.kind,
        "params": [[key, value] for key, value in spec.params],
        "inputs": [spec_to_document(input_spec) for input_spec in spec.inputs],
        "label": spec.label,
    }


def read_spec(spec_type: Callable[..., SpecT], document: object, what: str) -> SpecT:
    """Rebuild a source or validator spec tree from its document form.

    Only what the spec contract allows loads: ``kind`` a string, ``label``
    a string or null, and ``params`` a list of ``[str, str|int|float|bool]``
    pairs.  Anything else raises PersistError here, rather than a
    ``TypeError`` once an unhashable spec keys a session cache.
    """
    if isinstance(document, dict):
        kind, label = document.get("kind"), document.get("label")
        params, inputs = document.get("params", []), document.get("inputs", [])
        if (
            isinstance(kind, str)
            and (label is None or isinstance(label, str))
            and isinstance(params, list)
            and isinstance(inputs, list)
            and all(
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], _PARAM_TYPES)
                for pair in params
            )
        ):
            return spec_type(
                kind=kind,
                params=tuple((key, value) for key, value in params),
                inputs=tuple(read_spec(spec_type, entry, what) for entry in inputs),
                label=label,
            )
    raise PersistError(f"malformed {what} document: {document!r}")
