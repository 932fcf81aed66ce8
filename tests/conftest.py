import pytest

# Acceptance criteria results are printed in the terminal summary so each
# pass/fail line is visible even though pytest captures stdout during tests.
acceptance_report = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


@pytest.fixture
def no_training(monkeypatch):
    """Make any network training fail, for tests that a check runs first."""

    def fail(*args, **kwargs):
        raise AssertionError("a network trained before the check")

    monkeypatch.setattr("wolearn.backbone.fit_stack", fail)
