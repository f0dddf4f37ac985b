"""Shared benchmark fixtures.

Benchmarks regenerate the paper's tables and figures.  They print
their result tables (run pytest with ``-s`` or tee the output) and
assert only the paper's *qualitative* shape — who wins, roughly by how
much — never exact numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench.workloads import (
    presenting_dataset,
    shared_body_model,
    talking_dataset,
)

# The reference-field rows share the closure-chain oracle with the
# tests (``tests/reference_field.py``): keep the repository root
# importable however pytest was launched.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_terminal_summary(terminalreporter):
    """Re-emit every experiment table after output capture.

    pytest captures stdout during tests, so without this hook the
    regenerated paper tables would be invisible under the canonical
    ``pytest benchmarks/ --benchmark-only`` invocation.
    """
    from repro.bench.harness import SHOWN_TABLES

    if not SHOWN_TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "regenerated paper tables")
    for text in SHOWN_TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


def register(benchmark, callable_once, *args, **kwargs):
    """Run ``callable_once`` as a single-round benchmark.

    Every experiment test registers its final (cheap, representative)
    step through this helper so that ``pytest benchmarks/
    --benchmark-only`` executes the *whole* experiment — table printing
    included — rather than skipping fixture-less tests.
    """
    return benchmark.pedantic(
        callable_once, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


@pytest.fixture(scope="session")
def bench_model():
    return shared_body_model()


@pytest.fixture(scope="session")
def bench_talking():
    return talking_dataset(n_frames=12)


@pytest.fixture(scope="session")
def bench_presenting():
    return presenting_dataset(n_frames=12)
