"""Acceptance gate: every criterion must pass inside its time limit.

Each test prints one summary line so the criterion outcomes are visible
in the pytest -v output.
"""

import dataclasses
import json

import pytest

from nash_realize import acceptance, catalog
from nash_realize.config import RunConfig
from nash_realize.system import Box


@pytest.fixture(scope="module")
def systems():
    loaded, errors = acceptance._systems(None)
    assert not errors, f"bundled catalog failed to load: {errors}"
    return loaded


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


@pytest.mark.parametrize("name", sorted(acceptance.LIMITS))
def test_criterion(name, cfg, systems):
    row = acceptance.run_criterion(name, cfg, systems)
    status = "PASS" if row["passed"] else "FAIL"
    print(f"{name} {status} ({row['elapsed_seconds']:.1f}s, "
          f"limit {row['limit_seconds']:.0f}s)")
    if not row["passed"]:
        print(json.dumps(row["details"], indent=2, default=str)[:4000])
    assert row["passed"], f"{name} failed"
    assert row["elapsed_seconds"] <= row["limit_seconds"], \
        f"{name} exceeded its time limit"


def test_a8_fails_with_its_cap_when_no_word_stays_inside(cfg):
    # on (0.9999, 1.0001)^2 every SYS-DIAG word from (1, 1) leaves the
    # domain; the reachable-state loop of A8 must give up at its cap
    diag = catalog.load("SYS-DIAG")
    tiny = dataclasses.replace(diag, domain=Box((0.9999, 0.9999),
                                                (1.0001, 1.0001),
                                                (False, False)))
    row = acceptance.run_criterion("A8", cfg, {"SYS-DIAG": tiny})
    assert not row["passed"]
    assert row["details"]["error"] == (
        "DomainExit: only 0 of 140 SYS-DIAG words stayed in the domain "
        "in 2800 draws")
