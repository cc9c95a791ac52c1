"""Record ``golden.json``: digests of the outputs the current commit gives
for every pool entry of the ``axiom-verdicts`` and ``cli-files`` workloads.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are the reference; a change that is
meant to keep stdout and reports byte-identical must leave the file as is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, SRC, import_package

sys.path.insert(0, str(SRC))

import workloads as w  # noqa: E402


def main() -> int:
    mods = import_package()
    golden = {"pool": w.POOL, "axiom-verdicts": {}, "cli-files": {}}
    verdicts = golden["axiom-verdicts"]
    for family, n in w.AXIOM_FAMILIES:
        for axiom in w.AXIOM_NAMES:
            for p in range(w.POOL):
                report = w.checker_call(mods, family, n, axiom, p)()
                verdicts[f"{family}/{n}/{axiom}/{p}"] = w.report_digest(report)
    for p in range(w.POOL):
        summary = w.suite_call(mods, p)()
        if not summary.matches_expected:
            raise SystemExit(f"independence suite with seed {p} deviates from the expected pattern")
        verdicts[f"suite/{p}"] = w.report_digest(summary)
    with tempfile.TemporaryDirectory(dir=BENCH) as workdir:
        for n in w.CliFiles.SETS:
            for p in range(w.POOL):
                for step, argv in w.cli_argvs(n, p, Path(workdir)).items():
                    code, stdout, extra = w.cli_output(argv, w.run_cli(mods.cli, argv))
                    if code != 0:
                        raise SystemExit(f"{argv} exited with {code}")
                    golden["cli-files"][f"{n}/{p}/{step}"] = [stdout, extra] if "--out" in argv else [stdout]
    w.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
