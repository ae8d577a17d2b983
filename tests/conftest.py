"""Shared fixtures and the acceptance-line reporter.

Acceptance tests record one PASS/FAIL line each; the lines are replayed
in the terminal summary so they stay visible even with output capture.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import slabflow as sf

# Subprocesses the tests start (``python -m slabflow.cli``) import the
# package the suite imported, installed or not.
_SRC = str(Path(sf.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    def record(name, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def bundle():
    """name -> (scenario, field, report) for every bundled scenario."""
    out = {}
    for name, path in sf.bundled_scenario_paths().items():
        scenario = sf.load_scenario(path)
        field, report = sf.run_scheme(scenario)
        out[name] = (scenario, field, report)
    return out


@pytest.fixture(scope="session")
def zero_source_bundle(bundle):
    from slabflow import Num

    return {
        name: triple
        for name, triple in bundle.items()
        if triple[0].source is None or triple[0].source == Num(0.0)
    }


@pytest.fixture(scope="session")
def cone_study(bundle):
    scenario = bundle["cone_heat"][0]
    return sf.refinement_study(scenario, levels=4)
