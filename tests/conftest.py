import os

# One BLAS thread for the whole session, set before numpy loads.  The
# products here are small (blocks of a few dozen rows times an n x n
# propagator); a threaded BLAS splits them for no gain and, on a busy
# machine, its threads wait on each other: a 64-row product then takes
# milliseconds instead of microseconds.  A fixed count also keeps results
# that depend on the BLAS thread count the same on every machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from qst_control import ChainSpec, build_cache, site_by_site_set  # noqa: E402


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Emit one visible pass/fail line per acceptance criterion.

    Written through the terminal reporter so the lines survive output
    capture and show up in plain ``pytest -v`` runs.
    """
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    if report.when != "call" and not (report.when == "setup" and not report.passed):
        return
    num, name = marker.args
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"criterion {num:02d} ({name}): {status}")


@pytest.fixture(scope="session")
def spec4():
    return ChainSpec(n=4)


@pytest.fixture(scope="session")
def cache4(spec4):
    return build_cache(site_by_site_set(spec4.n, spec4.field_strength), spec4)


@pytest.fixture(scope="session")
def spec3():
    return ChainSpec(n=3)


@pytest.fixture(scope="session")
def cache3(spec3):
    return build_cache(site_by_site_set(spec3.n, spec3.field_strength), spec3)


@pytest.fixture()
def gen():
    return np.random.Generator(np.random.Philox(key=np.array([987654321, 0], dtype=np.uint64)))
