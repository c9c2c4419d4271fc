import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for sub in ("src", "tests", "perfbench"):
    if str(ROOT / sub) not in sys.path:
        sys.path.insert(0, str(ROOT / sub))
