"""Golden CLI outputs: exit code and SHA-256 of stdout for fixed invocations.

`golden_cli.json` maps each invocation, its arguments joined by single
spaces, to the exit code and the SHA-256 of the stdout that `choquet.cli.main`
produced for it.  Placeholders in braces name the input files that
`_write_inputs` creates.  The fixture was recorded once, before the lattice
and checker refactor, by running every invocation in-process through
`main` on the files below and hashing the captured stdout; refactors must
reproduce it byte for byte.  An intended change of output means recording
the affected entries again by the same procedure and saying why in the
change log.

The set covers the acceptance criterion-9 invocations, all six axioms in
text and JSON for every family at 200 trials (falsified cases included),
the 1000-trial independence suite in both formats and with
`--paper-witnesses-only`, a few error exits, and the `--help` text of the
program and of every subcommand.  argparse wraps help at the terminal
width, so every invocation runs with COLUMNS=80, the width the help was
recorded at.
"""

import hashlib
import json
from pathlib import Path

import pytest

from choquet.cli import main
from choquet.io import dump_document

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

INPUTS = {
    # the criterion-9 capacity
    "capacity3": {"n": 3, "by_mask": [0.0, 0.25, 0.5, 0.5, 0.25, 0.75, 0.5, 1.0]},
    # a non-monotone game on four elements
    "capacity4": {
        "n": 4,
        "by_mask": [0.0, 0.3, -0.2, 0.5, 0.1, 0.7, 0.25, 0.9,
                    -0.4, 0.2, 0.6, 1.1, 0.35, -0.15, 0.8, 1.0],
    },
    # the capacity the vstar-patch family overrides
    "vstar": {"n": 3, "by_mask": [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0]},
    "offset2": {"n": 2, "by_mask": [1.0, 3.0, -1.0, 2.0]},
}


def _write_inputs(directory: Path) -> dict:
    paths = {}
    for name, doc in INPUTS.items():
        path = directory / f"{name}.json"
        dump_document(doc, path)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_golden_cli(invocation, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    paths = _write_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in invocation.split(" ")]
    code = main(argv)
    out = capsys.readouterr().out
    expected = GOLDEN[invocation]
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]
