import os

import pytest

from sestrack import experiments


@pytest.fixture
def forks(monkeypatch):
    """The pids ``experiments._fork_map`` forks for Monte Carlo blocks, with
    as many workers granted as a caller asks for whatever the CPU count of
    the machine running the test."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    rows = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", None) != "call":
                continue
            if "test_acceptance.py" not in report.nodeid:
                continue
            rows.append((report.nodeid.split("::")[-1], outcome))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(rows):
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")
