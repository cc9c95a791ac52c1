"""Record the tier-1 golden fixtures again:

    python tests/record_goldens.py

rewrites golden_reports.json, golden_cli.json and golden_mobius.json from
the record() function of their test modules, each in its own layout, and
prints for each file the keys added, removed and changed.  It first prints
the OpenBLAS kernel and thread count, as the pytest header does: the
Mobius-route values from n = 14 and the family witnesses depend on them.
An intended change of output means running it and saying in the change
log which keys changed and why.  bench/golden.json is recorded by
bench/record_golden.py alone.
"""

import json

import conftest  # puts src on the import path
import test_golden_cli
import test_golden_mobius
import test_golden_reports

# The test module of each fixture and the JSON indent of its file.
FIXTURES = ((test_golden_reports, 1), (test_golden_cli, 2), (test_golden_mobius, 1))


def fixture_text(content: dict, indent: int) -> str:
    return json.dumps(content, indent=indent, sort_keys=True) + "\n"


def main() -> None:
    kernel, threads = conftest._openblas_runtime()
    print(f"OpenBLAS runtime kernel {kernel}, threads {threads}")
    for module, indent in FIXTURES:
        old, new = json.loads(module.GOLDEN_PATH.read_text()), module.record()
        module.GOLDEN_PATH.write_text(fixture_text(new, indent))
        changes = {"added": sorted(new.keys() - old), "removed": sorted(old.keys() - new),
                   "changed": sorted(k for k in new.keys() & old.keys() if new[k] != old[k])}
        print(f"{module.GOLDEN_PATH.name}: "
              + ", ".join(f"{len(keys)} {kind}" for kind, keys in changes.items()))
        for kind, keys in changes.items():
            for key in keys:
                print(f"  {kind}: {key}")


if __name__ == "__main__":
    main()
