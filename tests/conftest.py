"""Fixtures shared by several test modules."""

import pytest

from rgperturb.checks import random_spec, run_all_checks
from rgperturb.engine import expand_table


@pytest.fixture(scope="session")
def run_random_suite():
    """(klass, seeds) -> every identity report of each seeded random spec of the class."""
    def run(klass, seeds):
        return [report for seed in seeds for report in run_all_checks(
            expand_table(random_spec(klass, seed), label=f"random-{klass}-{seed}"), seed=seed)]
    return run
