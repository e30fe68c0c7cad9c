"""Dataset persistence.

The paper publishes its scan data and analysis; this package provides the
equivalent serialisation for the reproduction: observations as JSON-lines
files and alias/dual-stack sets as JSON documents.
"""

from repro.io.datasets import (
    DATASET_FORMAT_VERSION,
    DATASET_HEADER_KEY,
    dataset_header,
    load_alias_sets,
    load_observations,
    observation_from_dict,
    observation_json,
    observation_to_dict,
    save_alias_sets,
    save_observations,
)
from repro.io.jsonl import read_jsonl

__all__ = [
    "DATASET_FORMAT_VERSION",
    "DATASET_HEADER_KEY",
    "dataset_header",
    "read_jsonl",
    "load_alias_sets",
    "load_observations",
    "observation_from_dict",
    "observation_json",
    "observation_to_dict",
    "save_alias_sets",
    "save_observations",
]
