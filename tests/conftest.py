import time

import pytest
from hypothesis import settings

settings.register_profile("pkg", deadline=None, max_examples=60)
settings.load_profile("pkg")

# one line per acceptance criterion, echoed at the end of the run
ACCEPTANCE_LINES = []
# perf_counter() at the start of the running test (after its module-scoped
# fixtures are built), read by the acceptance report lines
TEST_STARTED = 0.0


@pytest.fixture(autouse=True)
def _time_test():
    global TEST_STARTED
    TEST_STARTED = time.perf_counter()
    yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def tmp_cache(tmp_path):
    return str(tmp_path / "cache")
