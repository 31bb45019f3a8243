"""The benchmark's tracing table against the package it wraps.

bench/tracing.py names, per fedprompt module, the public functions it
wraps with timing spans.  A traced benchmark run fails if one of them is
renamed or deleted, so this holds the table to the package here, where
the failure is cheap and names the function.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_table():
    """The TRACED literal, read from the source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


TRACED = [(home, name) for home, names in traced_table().items() for name in names]


@pytest.mark.parametrize("home, name", TRACED, ids=[f"{h}.{n}" for h, n in TRACED])
def test_traced_function_exists(home, name):
    module = importlib.import_module(f"fedprompt.{home}")
    assert callable(getattr(module, name, None)), f"fedprompt.{home} has no function {name}"


def test_table_covers_the_layers():
    # an empty or truncated table would pass the check above vacuously
    assert {home for home, _ in TRACED} >= {"translator", "world", "autograd", "federation"}
