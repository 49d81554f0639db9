"""Fixtures shared by the test modules."""

import copy
import functools

import pytest

from vlclink import run_blockage_sweep


@pytest.fixture(scope="session")
def blockage_sweep():
    """`run_blockage_sweep` at its default `jobs`, run once per config for the
    whole test run, so the modules that check one sweep share its run.  A
    `ScenarioConfig` is a frozen value, so equal configs share a run however
    they were built, and the result is the same for every `jobs`.  Each call
    returns its own copy of the result, so no test sees another's edits."""
    run = functools.cache(run_blockage_sweep)
    return lambda config: copy.deepcopy(run(config))
