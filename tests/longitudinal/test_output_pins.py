"""Byte pins of what the longitudinal poll loop and validation print.

``repro longitudinal``, ``repro serve`` and ``repro validate --snapshots``
all run the stream's poll loop.  These pins are SHA-256 digests of each
command's stdout at scale 0.1, invoked in-process, and of the
``stability.md`` the first one writes.  They were computed while
``repro longitudinal`` still ran a batch driver of its own, and read the
same under Python 3.11, 3.12 and 3.13.  One more pin covers single-shot
``repro validate`` over the three registered validators: its validation
table and its probe accounting, in total and by validator kind.  It last
moved when the accounting's "by vantage" line was dropped, which with one
validation vantage repeated the total; the rest of that stdout is the
bytes pinned while validator specs could still override the vantage.  A
pin may change only with a change that means to change that output, and
says so.
"""

import hashlib

import pytest

from repro.cli import main

#: What the ``--output`` directory reads as in a pinned stdout.
_OUTPUT = "OUT"


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_longitudinal_churn_stdout_and_stability_markdown(capsys, tmp_path):
    stdout = _stdout(
        capsys,
        ["longitudinal", "--scale", "0.1", "--seed", "42", "--snapshots", "4",
         "--churn", "0.05", "--output", str(tmp_path)],
    )
    assert _digest(stdout.replace(str(tmp_path), _OUTPUT)) == (
        "6678a355455997c8c474a23c6964eb827aca9d365e334176fe2fd94597198a15"
    )
    assert _digest((tmp_path / "stability.md").read_text()) == (
        "5f81f2ede7906fe9d8a74235655ad36d6c0e368e82e2a113bfbacd5cb0982a76"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["longitudinal", "--scale", "0.1", "--seed", "3", "--snapshots", "4",
             "--ipv4-only"],
            "d46d8b5266992f911ce125782894b6fece7d8361c28517dde8e91dcac2d0ef40",
        ),
        (
            ["serve", "--scale", "0.1", "--seed", "42", "--max-batches", "4",
             "--churn", "0.05"],
            "41cb7c22518229268d278db431fbe8f5aa431289b48743c29d728b4062517f9c",
        ),
        (
            ["validate", "--scale", "0.1", "--seed", "42", "--snapshots", "3"],
            "fef8372a2d0f71811d0891ab43e94b7ded6e60966f475aece5877a2741ac4253",
        ),
        (
            ["validate", "--scale", "0.1", "--seed", "42", "--validators", "midar", "ally",
             "speedtrap"],
            "7980567cf820f431946879ea5d445642b31607d7c0d3b3a2b2bb6db3af8d7425",
        ),
    ],
    ids=["longitudinal-ipv4-only", "serve-churn", "validate-snapshots", "validate"],
)
def test_stdout_pinned(capsys, argv, digest):
    assert _digest(_stdout(capsys, argv)) == digest
