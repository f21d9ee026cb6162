import sys
from pathlib import Path

from hypothesis import settings

try:
    import pacp  # noqa: F401
except ImportError:  # allow running pytest from a fresh checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Host speed drifts by up to 2x, so a per-example deadline only makes
# property tests flaky; example counts stay each test's own.
settings.register_profile("pacp", deadline=None)
settings.load_profile("pacp")
