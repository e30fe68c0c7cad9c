"""Byte pins of what the scan produces.

The scan stack may get cheaper, never different: every optimisation of
the simulated servers, the scanner or the wire codecs must leave the
saved datasets and the rendered experiments byte-identical.  These pins
are SHA-256 digests of

* the ``save_observations`` JSONL of every registered source at scale
  0.125, seeds 0 and 1, built in registration order;
* the five datasets the shared scale-1.0 seed-42 ``paper_session``
  already holds (read from its cache, never built here); and
* each of the ten experiments rendered from that session.

They were computed before the scan stack's first optimisation and read
the same under Python 3.11, 3.12 and 3.13.  A pin may change only with a
change that means to change the scan's output, and says so.
"""

import hashlib

import pytest

from repro.api import ReproSession, ScenarioConfig
from repro.api.sources import SOURCES, named_source
from repro.io.datasets import save_observations

#: ``{seed: {registered source: digest}}`` at scale 0.125, in registration order.
SMALL_SCALE_PINS = {
    0: {
        "active": "2514eedec968320de0d5ae33165d8329b10b555bd08dce1a4673c1d9f27d70e1",
        "active-ipv4": "13230a2b737782d4ba4527653ae36c78255234e1575548792077ad48a8e234a0",
        "active-ipv6": "43fd7157bf2343e5b41a61c8807d66ae818ad70be7b741c2639d5b6c72516c94",
        "censys": "3f78723fd4a59dbb56e6fa0a3ea42da70255e065cf7a2248aafaf043c6caf37f",
        "censys-standard": "78d78d3fca6eb7a8bb3da8c22428dc0542b73883b1de6f9d8f5551da883d1124",
        "censys-ipv6": "d2c03d00183568e70563a4da795c6b980f14483a217f49777ce1cce7a86000f2",
        "union-ipv4": "fdf8bf0c156b952054ac373c2b9a9d405216f3e276d46cf8bf792dc44a97324f",
        "union": "67a5903f680a9604c80f108802974cef28d3f78e683b7bf94a7927e752b7be8b",
    },
    1: {
        "active": "796e7b5eced191db4d83b1b2b4d15f5c3f9835a98b07a96259db3d62d4c5cbd1",
        "active-ipv4": "ffe7f0eeb09eb58b42d7d8d326fb43ac9fac37967b8e5ec04d21ed1575175ac7",
        "active-ipv6": "f8aca5a1c511fbda3ff837c4b01934e236280e0446b4d1817073df7de9954706",
        "censys": "18117ad570d1d0d66a4b3274b143803721921706d7447fa9cda58cf76298212e",
        "censys-standard": "08150e6dbfab84d2bea7f3938a9d47e26177aedc3a876020c5dfc3fceed6f878",
        "censys-ipv6": "ce8afa10f24f6d1c9702499a814147f05077aba41d27cf7d933fdba939ae8103",
        "union-ipv4": "e28641b737d43b3036343f3213025e4668fe4d01ebb3f2903ecf0d5dcecdc8ed",
        "union": "5a068aa9d651c96652ffeb3f5da52bdcc8e5ae78bac3bd52df36cfe290918f72",
    },
}

#: The datasets ``paper_session`` holds once its experiments are rendered.
#: ``union-ipv4`` is the merged IPv4 view (dataset name ``union``) that the
#: ``union`` composition streams ahead of the active IPv6 scan.
PAPER_DATASET_PINS = {
    "active-ipv4": "d3c97b678eaf9d7a3cd86a8049293ca27ff868ec1c9de643c0cdec2ce6c145f5",
    "active-ipv6": "f7d91ab980ec694b972e6963991f9010d12cb87f7923cb0ee14a69f00aadb723",
    "censys": "2f729fd938be0ff403f2cf36463646e9cc19e1d6ad11664d26731bcb9b5b334b",
    "censys-standard": "d23ffc1137204e57bbf2c1086bd1c1aa96e3c9d76194cace5f48cfb3f593b5b8",
    "union-ipv4": "9b1cb6594c3b86c545d905aeaaf341e1f7152c3ece5e627f9a760d0b3932d232",
}

#: UTF-8 digests of the ten renders in ``paper_experiments``.
PAPER_EXPERIMENT_PINS = {
    "figure3": "8410d38b80980f506ad135034247277e22742fc4e120250ffa4a25d4185a2675",
    "figure4": "f7ad244673bee2e21c61cd12a13752cf58f989ec05ad9e722dca5a0a61daf288",
    "figure5": "03b76e9adab3d3ffaae548dc07c185d0cd2da530899113a3a6fce7b221c48d28",
    "figure6": "a89c7a0c8ffbfd8847ff4596b8851e500e3387b2612f7de2221656cf6d4e300a",
    "table1": "d9ca8ef6b2c55654a69714d29e0110c36046b66f0d3a6e479be5f0a568d9e58e",
    "table2": "3c688cb095887065e9478eb535059e836327b27da894baf3b93ce6d24953b348",
    "table3": "cf7162b5711a2bd0dc2120acfe2965335c79536f36034235aeaf35a72b1290a3",
    "table4": "32399cc3a34f4aa25325180d6bb23ad84f80aa9eeef6620e345a581cb5997a29",
    "table5": "5a50a6bfb72aeede0ad6d20bf03faadb2bf64c41486005039a59ce9eba18c524",
    "table6": "9ec5f4f9699db78fc1a01f3e7bb2a3ebbb84097868e59a64197f8bed09945ee0",
}


def _dataset_digest(dataset, path) -> str:
    save_observations(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(SMALL_SCALE_PINS))
def test_registered_sources_are_byte_identical(seed, tmp_path):
    pins = SMALL_SCALE_PINS[seed]
    assert set(pins) <= {entry.name for entry in SOURCES}
    session = ReproSession(ScenarioConfig(scale=0.125, seed=seed))
    digests = {
        name: _dataset_digest(session.dataset(name), tmp_path / f"{name}.jsonl")
        for name in pins
    }
    assert digests == pins


def test_paper_session_datasets_are_byte_identical(paper_session, tmp_path):
    cached = paper_session.cached_datasets()
    digests = {}
    for name in PAPER_DATASET_PINS:
        spec = named_source(name)
        assert spec in cached, f"paper_session holds no {name} dataset"
        digests[name] = _dataset_digest(cached[spec], tmp_path / f"{name}.jsonl")
    assert digests == PAPER_DATASET_PINS


def test_paper_experiments_are_byte_identical(paper_experiments):
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest() for name, text in paper_experiments.items()
    }
    assert digests == PAPER_EXPERIMENT_PINS
