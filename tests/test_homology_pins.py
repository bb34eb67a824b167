"""Byte pins of the ``homology`` table: SHA-256 of the CLI stdout.

The digests were recorded from the package while it still reduced the
whole filtered boundary matrix column by column; a reduction that moves
any pair, any printed digit or the order of the rows fails here.  One
probe has a long-lived H1 class (n=1) and one has none (n=3).
"""

import hashlib

import pytest
from click.testing import CliRunner

from ranspace.cli import main


@pytest.mark.parametrize(
    "n, m, landmarks, scale, digest",
    [
        (3, 300, 60, 0.3, "ab32d507b66f1616c6334d2dda3cf35daf1abf26d7d88a5b5432e20d3760e038"),
        (1, 200, 60, 0.35, "86c0162dfe5e82be137c215b9e7c550d3d3c044eae1afb0216090ec1467abc0b"),
        (1, 300, 90, 0.35, "e3cebf42c98b40ebf302904173907b5d3ea8d79889ea5f80cb0254b4880e70c3"),
    ],
)
def test_homology_table_digest(n, m, landmarks, scale, digest):
    args = ["homology", "--n", n, "--m", m, "--landmarks", landmarks, "--max-scale", scale, "--seed", 0]
    res = CliRunner().invoke(main, list(map(str, args)))
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest
