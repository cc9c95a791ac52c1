"""Golden CLI outputs: exit code and SHA-256 of stdout for fixed invocations.

`golden_cli.json` maps each invocation, its arguments joined by single
spaces, to the exit code and the SHA-256 of the stdout that `choquet.cli.main`
produced for it.  Placeholders in braces name the input files that
`_write_inputs` creates.  The fixture was first recorded before the lattice
and checker refactor; refactors must reproduce it byte for byte.

    PYTHONPATH=src python tests/test_golden_cli.py

records it again: it runs every invocation the fixture lists in-process
through `main`, on the files below, and rewrites the fixture with each
exit code and stdout digest.  An intended change of output means running
it and saying in the change log which entries changed and why.

The set covers the acceptance criterion-9 invocations, all six axioms in
text and JSON for every family at 200 trials (falsified cases included),
the 1000-trial independence suite in both formats and with
`--paper-witnesses-only`, a few error exits, and the `--help` text of the
program and of every subcommand.  argparse wraps help at the terminal
width, so every invocation runs with COLUMNS=80, the width the help was
recorded at.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from choquet.cli import main
from choquet.io import dump_document

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

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


def run(invocation: str, paths: dict) -> dict:
    """The exit code and stdout digest of one invocation, run through main."""
    argv = [arg.format(**paths) for arg in invocation.split(" ")]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_golden_cli(invocation, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(invocation, _write_inputs(tmp_path)) == GOLDEN[invocation]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_inputs(Path(directory))
        recorded = {invocation: run(invocation, paths) for invocation in GOLDEN}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} invocations in {GOLDEN_PATH}", file=sys.stderr)
