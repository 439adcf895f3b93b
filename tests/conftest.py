"""Let the CLI subprocesses that tests start import the package from this
checkout, as pytest's ``pythonpath`` setting does for the tests themselves."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
