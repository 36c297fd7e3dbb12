"""The exponential part of the search, as a log: the time and SearchStats of
a false is_actual_cause on the window and chain models of test_cause.py at
n = 12 to 20, and on window n = 16 with the effect V7 (ROADMAP item 2's
done-when cases); then those of active_processes on the window models at
n = 12 and 14, cause V(n//2), where NoCause is a result like any other; last
the process's peak RSS, so that a change to what a query keeps shows beside
the times.

    PYTHONPATH=src:tests python3 tests/scaling.py

An is_actual_cause case fails when its verdict is true, as the series is
meant to search every setting, or when its counts are other than
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


def main() -> int:
    wrong, cases = 0, []
    for n in (12, 14, 16, 18, 20):
        cases += [(f"chain n={n}", chain_model, n, f"C{n - 1}", "C0"),
                  (f"window n={n}", window_model, n, "V0", f"V{n - 1}")]
    cases.append(("window n=16 effect V7", window_model, 16, "V0", "V7"))
    for label, family, n, cause, effect in cases:
        model = family(0, n)
        actual = solve(model, {"U": 0})
        start = time.perf_counter()
        verdict = is_actual_cause(CauseQuery(
            model, {"U": 0}, cause_of(p(cause, actual[cause])),
            p(effect, actual[effect]), max_vars=64))
        print(f"{label}: {time.perf_counter() - start:.3f} s",
              verdict.overall, verdict.stats)
        full = SearchStats(2 ** (n - 1), 3 ** (n - 1))
        wrong += verdict.overall or verdict.stats != full
    for n in (12, 14):
        model, cause, effect = window_model(0, n), f"V{n // 2}", f"V{n - 1}"
        actual, stats = solve(model, {"U": 0}), SearchStats()
        start = time.perf_counter()
        try:
            found = active_processes(
                model, {"U": 0}, cause_of(p(cause, actual[cause])),
                p(effect, actual[effect]), max_vars=64, stats=stats)
        except NoCause:
            found = "NoCause"
        print(f"process window n={n}: "
              f"{time.perf_counter() - start:.3f} s", found, stats)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    return wrong


if __name__ == "__main__":
    sys.exit(main())
