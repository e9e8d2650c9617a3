"""Self-check suite registry: everything passes on a pristine build."""

import pytest

from certheat.errors import ConfigError
from certheat.verify import SUITES, run_suite, suite_names


def test_suite_names_cover_modules():
    assert suite_names() == ["kernels", "series", "laplace", "heat",
                             "hardness", "all"]


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("sphere", 0)


def test_all_suites_pass():
    results = run_suite("all", seed=3)
    assert len(results) == sum(len(checks) for checks in SUITES.values())
    bad = [(r.suite, r.name, r.detail) for r in results if not r.ok]
    assert bad == []


def test_results_carry_suite_and_name():
    results = run_suite("series", seed=1)
    assert [r.suite for r in results] == ["series"] * len(results)
    assert len({r.name for r in results}) == len(results)
