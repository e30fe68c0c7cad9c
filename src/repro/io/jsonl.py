"""JSON-lines reading.

Scan datasets are append-friendly streams of records, so JSON-lines is the
natural on-disk format (it is also what ZGrab2 and Censys exports use).
Dataset files are written by :func:`repro.io.datasets.save_observations`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.errors import DatasetError


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one dict per non-empty line of ``path``.

    Raises:
        DatasetError: if the file does not exist or a line is not valid JSON.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{line_number}: invalid JSON") from exc
