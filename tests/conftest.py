"""Make the package importable when the tests run without installation."""
import sys
from pathlib import Path

try:
    import rtangle  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
