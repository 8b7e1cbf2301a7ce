import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py and cross-test fixtures

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # only tests/test_properties.py needs it, and it says so when collected
    pass
else:
    # Same examples on every run, no example database written to the tree,
    # and no limit that depends on how busy the host is: the per-example
    # deadline and the generation-speed health check both measure wall time.
    settings.register_profile("actseg", derandomize=True, database=None, deadline=None,
                              max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("actseg")
