import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py and cross-test fixtures
