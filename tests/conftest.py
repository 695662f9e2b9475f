"""Shared pytest hooks: the end-of-run acceptance scoreboard.

Every test named ``test_criterion_NN_*`` in ``test_acceptance.py``, and no
test of another file, feeds one line of the summary printed after the
normal pytest output, so a full run ends with an explicit pass/fail verdict
per shipped guarantee.
"""

import re

CRITERIA = {
    1: "tree validation matches the exhaustive head-vector oracle",
    2: "forward levels equal token depths on random trees",
    3: "sparse solver matches the dense minimum-norm oracle",
    4: "layered graphs pin democracy and incoherence to zero",
    5: "cross-linking lifts diameter past the deepest tree",
    6: "power-law fits recover the planted alpha and xmin",
    7: "bootstrap keeps power laws and rejects lognormals",
    8: "takeover: emergence flagged, rank/frequency dissociate",
    9: "analyze bundles are byte-identical under a fixed seed",
    10: "summarize matches brute-force BFS/triangle oracles",
}

_PATTERN = re.compile(r"(?:^|/)test_acceptance\.py::test_criterion_(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, verdict in (("passed", "PASS"),
                            ("failed", "FAIL"),
                            ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, ()):
            match = _PATTERN.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            if verdict == "FAIL" or outcomes.get(number) != "FAIL":
                outcomes[number] = verdict
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        verdict = outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict:7s} {CRITERIA[number]}"
        )
