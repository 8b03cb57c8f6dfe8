import sys
from pathlib import Path

# The ledger package lives beside run.py, not under src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
