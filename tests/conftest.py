"""Suite-wide hooks: a report of slow tests.

A test whose call phase takes over SLOW_TEST_S seconds is listed at the end
of the run, one line each.  The report never fails a test: wall times on a
shared host drift by a third from run to run, so the line is a prompt to
look, not a gate.
"""

SLOW_TEST_S = 10.0


def pytest_terminal_summary(terminalreporter):
    slow = [rep for stat in terminalreporter.stats.values() for rep in stat
            if getattr(rep, "when", None) == "call"
            and getattr(rep, "duration", 0.0) > SLOW_TEST_S]
    if not slow:
        return
    terminalreporter.section(f"tests over {SLOW_TEST_S:g} s")
    for rep in sorted(slow, key=lambda r: -r.duration):
        terminalreporter.write_line(f"SLOW {rep.duration:.1f}s {rep.nodeid}")
