"""Echo one verdict line per acceptance criterion after the run.

The acceptance tests in test_acceptance.py print their own "[criterion NN]"
lines, but pytest captures stdout of passing tests, so this hook repeats the
verdicts in the terminal summary where they are always visible, each with the
wall time of the test call. It ends with the session's peak resident memory
(`ru_maxrss`).
"""

import re
import resource
import sys

_CRITERION = re.compile(r"test_criterion_(\d+)")
_outcomes = {}
_seconds = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _outcomes[number] = report.outcome
    if report.when == "call":
        _seconds[number] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _outcomes:
        _criteria(terminalreporter)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    terminalreporter.write_line(f"[peak rss] {peak_mb:.1f} MB in this test session")


def _criteria(terminalreporter):
    module = sys.modules.get("test_acceptance")
    descriptions = getattr(module, "CRITERIA", {}) if module else {}
    verdicts = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        text = descriptions.get(number, "")
        verdict = verdicts.get(_outcomes[number], _outcomes[number].upper())
        took = f" ({_seconds[number]:.1f} s)" if number in _seconds else ""
        terminalreporter.write_line(f"[criterion {number:02d}] {text}: {verdict}{took}")
