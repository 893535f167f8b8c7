"""Puts this checkout's src/ on sys.path only when sure_lab cannot be
imported, so an installed sure_lab or one on PYTHONPATH is the one the
suite tests."""

import importlib.util
import pathlib
import sys

if importlib.util.find_spec("sure_lab") is None:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
