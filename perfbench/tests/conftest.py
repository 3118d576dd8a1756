import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The benchmark's modules import each other as top-level names, as they do
# when run.py is started as a script; the program comes from the checkout.
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
