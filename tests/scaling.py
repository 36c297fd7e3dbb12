"""The exponential part of the search, as a log: the time and SearchStats of
a false is_actual_cause on the window and chain models of test_cause.py at
n = 12 to 20, and on window n = 16 with the effect V7 (ROADMAP item 2's
done-when cases); then those of active_processes on the window models at
n = 12 and 14, cause V(n//2), where NoCause is a result like any other; last
the process's peak RSS, so that a change to what a query keeps shows beside
the times.  Each case runs three times and prints its best time: the first
run also builds the plan, and a single run's time swings widely on a small
box.

    PYTHONPATH=src:tests python3 tests/scaling.py

An is_actual_cause case fails when a run's verdict is true, as the series is
meant to search every setting, or when a run's counts are other than
SearchStats(2**(n-1), 3**(n-1)), those of a full scan of a binary model, so
that the closed-form counts are checked at sizes the tests do not pin.  The
exit status is the number of failed cases.
"""

from __future__ import annotations

import resource
import sys
import time

from actualcause import (CauseQuery, SearchStats, active_processes, cause_of,
                         is_actual_cause, p, solve)
from actualcause.errors import NoCause
from test_cause import chain_model, window_model


def best_of_three(run):
    """The least time of three calls of ``run``, and their results."""
    times, results = [], []
    for _ in range(3):
        start = time.perf_counter()
        results.append(run())
        times.append(time.perf_counter() - start)
    return min(times), results


def processes(model, cause, effect, actual):
    """active_processes' result, or "NoCause", and its SearchStats."""
    stats = SearchStats()
    try:
        found = active_processes(
            model, {"U": 0}, cause_of(p(cause, actual[cause])),
            p(effect, actual[effect]), max_vars=64, stats=stats)
    except NoCause:
        found = "NoCause"
    return found, stats


def main() -> int:
    wrong, cases = 0, []
    for n in (12, 14, 16, 18, 20):
        cases += [(f"chain n={n}", chain_model, n, f"C{n - 1}", "C0"),
                  (f"window n={n}", window_model, n, "V0", f"V{n - 1}")]
    cases.append(("window n=16 effect V7", window_model, 16, "V0", "V7"))
    for label, family, n, cause, effect in cases:
        model = family(0, n)
        actual = solve(model, {"U": 0})
        query = CauseQuery(model, {"U": 0}, cause_of(p(cause, actual[cause])),
                           p(effect, actual[effect]), max_vars=64)
        best, verdicts = best_of_three(lambda: is_actual_cause(query))
        print(f"{label}: {best:.3f} s", verdicts[0].overall,
              verdicts[0].stats)
        full = SearchStats(2 ** (n - 1), 3 ** (n - 1))
        wrong += any(v.overall or v.stats != full for v in verdicts)
    for n in (12, 14):
        model, cause, effect = window_model(0, n), f"V{n // 2}", f"V{n - 1}"
        actual = solve(model, {"U": 0})
        best, results = best_of_three(
            lambda: processes(model, cause, effect, actual))
        print(f"process window n={n}: {best:.3f} s", *results[0])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    return wrong


if __name__ == "__main__":
    sys.exit(main())
