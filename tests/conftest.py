import gc

import pytest


@pytest.fixture(autouse=True)
def no_frozen_objects_left():
    """Fail a test that leaves objects frozen: gc.freeze is process-wide.

    Only `cli.entrypoint` may freeze, as the process exits; a freeze left by
    a test would exempt everything allocated so far from collection in every
    later test.
    """
    yield
    frozen = gc.get_freeze_count()
    if frozen:
        gc.unfreeze()
        pytest.fail(f"test left {frozen} objects frozen by gc.freeze")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(criterion, label): marks a test as one acceptance criterion"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "acceptance" in report.keywords:
                outcomes.setdefault(report.nodeid, status)
    # Recover (criterion, label) from the collected items so the lines carry
    # the criterion numbers even though reports only expose keywords.
    lines = []
    for item in getattr(config, "_acceptance_items", []):
        marker = item.get_closest_marker("acceptance")
        status = outcomes.get(item.nodeid)
        if status is None:
            continue
        verdict = "PASS" if status == "passed" else "FAIL"
        lines.append((marker.kwargs["criterion"], marker.kwargs["label"], verdict))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for number, label, verdict in sorted(lines):
            terminalreporter.write_line(f"criterion {number} ({label}): {verdict}")


def pytest_collection_modifyitems(config, items):
    config._acceptance_items = [
        item for item in items if item.get_closest_marker("acceptance")
    ]
