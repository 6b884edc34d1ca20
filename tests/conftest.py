"""Shared fixtures plus the acceptance-gate summary.

Tests marked @pytest.mark.acceptance(criterion=..., name=...) are collected
into a per-criterion PASS/FAIL table printed at the end of the run, with
parametrized cases AND-ed together.
"""

import time

import pytest
from hypothesis import settings

import fcdm
from fcdm.spectral import _transfer_axis, _transfer_function

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# criterion number -> (name, all cases passed so far)
_GATE = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None or report.when not in ("setup", "call"):
        return
    criterion = marker.kwargs["criterion"]
    name = marker.kwargs.get("name", "")
    passed_so_far = _GATE.get(criterion, (name, True))[1]
    if report.when == "setup":
        ok = not report.failed
        if report.skipped:
            ok = False
    else:
        ok = report.passed
    _GATE[criterion] = (name, passed_so_far and ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _GATE:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_GATE):
        name, ok = _GATE[criterion]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {criterion} ({name}): {verdict}")


@pytest.fixture(scope="session")
def default_run():
    """The benchmark experiment: default spirals, 75/25 split, default training.

    Shared by the acceptance gate and a few goldens; built once because the
    512 mesh takes a couple of seconds.
    """
    started = time.perf_counter()
    data = fcdm.generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, 42)
    train_set, test_set = fcdm.split(data, 0.25, 42)
    config = fcdm.TrainConfig()
    model = fcdm.train(train_set, config)
    train_report = fcdm.evaluate(model, train_set)
    test_report = fcdm.evaluate(model, test_set)
    elapsed = time.perf_counter() - started
    return {
        "data": data,
        "train_set": train_set,
        "test_set": test_set,
        "config": config,
        "model": model,
        "train_report": train_report,
        "test_report": test_report,
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="session")
def small_model():
    """A fast 64-mesh model over a smaller spiral draw, for plumbing tests."""
    data = fcdm.generate_spirals(3, 60, [0.01, 0.015, 0.02], 1.75, 7)
    return fcdm.train(data, fcdm.TrainConfig(n_mesh=64))


@pytest.fixture
def cold_transfer_caches():
    """Empty the memoised transfer axes and functions before and after a test.

    For tests that patch what the transfer function is built from, count
    what building it allocates, or count how often it is built.
    """
    for cached in (_transfer_axis, _transfer_function):
        cached.cache_clear()
    yield
    for cached in (_transfer_axis, _transfer_function):
        cached.cache_clear()
