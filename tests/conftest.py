import sys

import numpy as np

# The numpy release CI installs (.github/workflows/tier1.yml); the digests in
# test_replay_pin.py were recorded with it, and another release may round differently.
PINNED_NUMPY = "2.4.6"


def pytest_report_header(config):
    return [
        f"python {sys.version.split()[0]}, numpy {np.__version__}",
        f"replay pins in tests/test_replay_pin.py were recorded with numpy {PINNED_NUMPY}, the release CI pins",
    ]
