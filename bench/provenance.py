"""Machine and code facts recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def limit_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cap):
            os.environ[var] = str(cap)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(numpy) -> str | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path) -> dict:
    import numpy
    import scipy
    import coexsim
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(root),
        "coexsim": getattr(coexsim, "__version__", None),
    }
