"""JSON-lines reading.

Scan datasets are append-friendly streams of records, so JSON-lines is the
natural on-disk format (it is also what ZGrab2 and Censys exports use).
Dataset files are written by :func:`repro.io.datasets.save_observations`.

A file is read once, as bytes (:func:`read_dataset_bytes`), so a loader
that checks the file's content digest parses the very bytes it hashed.
:func:`dataset_text` decodes them to the text a text-mode read sees
(UTF-8, universal newlines), after which the bytes can be dropped, and
:func:`parse_jsonl` parses each stripped line of it as ``json.loads``
would.  Every failure is a
:class:`~repro.errors.DatasetError` naming the path, and the line where
one is known: a missing or unreadable file (a directory, say), bytes that
are not UTF-8, and a line that is not one JSON value.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.errors import DatasetError

#: ``json.loads`` without its per-call set-up: the default decoder's scan of
#: one value, returning where it ended.
_raw_decode = json.JSONDecoder().raw_decode


def read_dataset_bytes(path: Path) -> bytes:
    """The bytes of a dataset file.

    Raises:
        DatasetError: if the file does not exist or cannot be read.
    """
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc.strerror or exc}") from exc


def dataset_text(data: bytes, path: Path) -> str:
    """``data``, read from ``path``, as the text a UTF-8 text-mode read sees.

    ``\\r\\n`` and a lone ``\\r`` end a line as ``\\n`` does (universal
    newlines); the text has only ``\\n`` line endings.

    Raises:
        DatasetError: if ``data`` is not UTF-8, naming the line of the
            first byte that is not.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line_number = before.count(b"\n") + 1
        raise DatasetError(f"{path}:{line_number}: not UTF-8 text ({exc.reason})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_jsonl(text: str, path: Path) -> Iterator[Any]:
    """Yield the JSON value of each non-blank line of ``text``, read from ``path``.

    ``text`` is what :func:`dataset_text` returns.  Each line is sliced
    from it in turn (no list of lines is built), stripped and parsed as
    ``json.loads`` parses it.

    Raises:
        DatasetError: if a line is not one JSON value.
    """
    find = text.find
    start, size, line_number = 0, len(text), 0
    while start < size:
        end = find("\n", start)
        if end < 0:
            end = size
        line = text[start:end].strip()
        start = end + 1
        line_number += 1
        if not line:
            continue
        try:
            value, stop = _raw_decode(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{line_number}: invalid JSON") from exc
        if stop != len(line):
            raise DatasetError(f"{path}:{line_number}: invalid JSON")
        yield value


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """Yield the JSON value of each non-blank line of ``path``.

    Raises:
        DatasetError: if the file does not exist or cannot be read, is not
            UTF-8, or a line is not valid JSON.
    """
    path = Path(path)
    yield from parse_jsonl(dataset_text(read_dataset_bytes(path), path), path)
