import platform
import sys
from pathlib import Path

import numpy as np

# The numpy release CI installs (.github/workflows/tier1.yml); the digests in
# test_replay_pin.py were recorded with it, and another release may round differently.
PINNED_NUMPY = "2.4.6"

# The OpenBLAS kernel the replay runs force through OPENBLAS_CORETYPE. The fsp
# learners' matrix products round differently under another kernel, and
# OpenBLAS picks one per host, so the pinned fsp digests hold only under this one.
PINNED_BLAS_CORETYPE = "Haswell"

# The kernel's transparent huge page mode: numpy's huge-page advice on large
# arrays takes effect only under "always" or "madvise", so the behaviour
# memory's resident-growth test can catch a huge page per agent only there.
THP_MODE = Path("/sys/kernel/mm/transparent_hugepage/enabled")


def pytest_report_header(config):
    thp = THP_MODE.read_text().strip() if THP_MODE.exists() else "not reported by this kernel"
    libc = " ".join(platform.libc_ver()).strip() or "not reported by this platform"
    return [
        f"python {sys.version.split()[0]}, numpy {np.__version__}",
        f"replay pins in tests/test_replay_pin.py were recorded with numpy {PINNED_NUMPY}, the release CI pins, "
        f"and run with OPENBLAS_CORETYPE={PINNED_BLAS_CORETYPE}",
        f"C library: {libc} (every pin's arrival gaps go through its log1p)",
        f"transparent huge pages: {thp}",
    ]
