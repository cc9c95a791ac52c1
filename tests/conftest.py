import ctypes
import os
import sys
from pathlib import Path

import numpy as np

# Allow running the suite from a fresh checkout without installation.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _openblas_runtime() -> tuple[str, str]:
    """The kernel and thread count that the OpenBLAS bundled with numpy chose
    in this process, or "unknown" for each it does not export."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode(), str(threads())
    return "unknown", "unknown"


def pytest_report_header(config):
    """The BLAS setup, which the pinned bits of the golden files depend on,
    and the Python settings that change what the tests observe; read only,
    nothing is set."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernel, threads = _openblas_runtime()
    return [
        f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
        f"{blas.get('version', 'unknown')} ({blas.get('openblas configuration', 'unknown')})",
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}, "
        f"OpenBLAS runtime kernel {kernel}, threads {threads}",
        # An unbuffered stdout takes short writes as whole; without bytecode
        # writes every import compiles its module.
        f"PYTHONUNBUFFERED={os.environ.get('PYTHONUNBUFFERED', 'unset')}, "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}",
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The same lines after the results under -q, which hides the header."""
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


def assert_close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> None:
    gap = abs(a - b)
    bound = max(abs_tol, rel * max(abs(a), abs(b)))
    assert gap <= bound, f"{a!r} != {b!r} (gap {gap:.3e} > bound {bound:.3e})"


def family_sizes(sizes):
    """(family, n) for every entry of the family table, at each of sizes or
    at the family's fixed ground set, in table order."""
    from choquet.axioms import _FAMILY_PARTS

    return list(dict.fromkeys(
        (family, parts.ground_set or n) for family, parts in _FAMILY_PARTS.items() for n in sizes))
