"""Lets pytest import the store from ``src/`` without an installed package."""

import pathlib
import sys

try:  # pragma: no cover - trivial import guard
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - only on uninstalled checkouts
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
