"""Exhaustive audits of the checker against the brute-force oracle on every
small binary model.

In each model, every variable reads any subset of the context U and the
earlier variables, through any table: 156 models of two variables and
49,608 of three.  The two-variable audits run in tier-1 (see
test_exhaustive.py), among them one of the oracle's all-change reading
against its plain reading.  The three-variable audit takes minutes, so it
runs as a script that prints its counts and exits 1 on any disagreement:

    PYTHONPATH=src python tests/exhaustive.py

It compares is_weak_cause with weak_cause_bruteforce in both contexts for
every single cause of every single-variable effect, under updated and
legacy.
"""

from __future__ import annotations

import itertools
import sys
import time

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Signature,
    build_model,
    cause_of,
    is_actual_cause,
    is_weak_cause,
    p,
    solve,
)
from actualcause.oracle import (
    actual_cause_bruteforce,
    weak_cause_all_change,
    weak_cause_bruteforce,
)

VARIANTS = (DefinitionVariant.UPDATED, DefinitionVariant.LEGACY)


def binary_models(n: int):
    """Every binary model of ``n`` variables V0..V(n-1) behind a binary U,
    in which Vi reads any subset of U, V0..V(i-1) through any table."""
    names = tuple(f"V{i}" for i in range(n))
    signature = Signature(("U",), names,
                          {v: Domain((0, 1)) for v in ("U", *names)})
    rules = []
    for i, var in enumerate(names):
        pool = ("U", *names[:i])
        rules.append([
            Mechanism.from_table(var, deps, dict(zip(rows, outputs)))
            for k in range(len(pool) + 1)
            for deps in itertools.combinations(pool, k)
            for rows in [list(itertools.product((0, 1), repeat=k))]
            for outputs in itertools.product((0, 1), repeat=len(rows))])
    for number, mechanisms in enumerate(itertools.product(*rules)):
        yield build_model(signature, list(mechanisms),
                          name=f"binary{n}_{number}")


def actual_cause_audit(n: int = 2):
    """(queries, disagreements) of is_actual_cause against
    actual_cause_bruteforce: every model in both contexts, under every
    allowable set of worlds that keeps the actual world, for each
    single-variable effect, every single cause on another variable and the
    cause of all variables, under updated and legacy."""
    queries, wrong = 0, []
    worlds = list(itertools.product((0, 1), repeat=n))
    for model in binary_models(n):
        endo = model.endogenous
        for u in (0, 1):
            context = {"U": u}
            actual = solve(model, context)
            world = tuple(actual[v] for v in endo)
            others = [w for w in worlds if w != world]
            for k in range(len(others) + 1):
                for kept in itertools.combinations(others, k):
                    allowed = frozenset((world, *kept))
                    target = ExtendedCausalModel(model, allowed)

                    def allow(solved, allowed=allowed):
                        return tuple(solved[v] for v in endo) in allowed
                    for y in endo:
                        effect = p(y, actual[y])
                        causes = [(p(x, actual[x]),) for x in endo if x != y]
                        causes.append(tuple(p(x, actual[x]) for x in endo))
                        for events, variant in itertools.product(causes,
                                                                 VARIANTS):
                            got = is_actual_cause(CauseQuery(
                                target, context, cause_of(*events), effect,
                                variant=variant)).overall
                            expected = actual_cause_bruteforce(
                                model, context, events, effect, allow=allow,
                                legacy=variant is DefinitionVariant.LEGACY)
                            queries += 1
                            if got != expected:
                                wrong.append(
                                    f"{model.name} U={u} allow={sorted(allowed)}"
                                    f" {variant.value} {events} -> {effect}:"
                                    f" {got}, oracle {expected}")
    return queries, wrong


def weak_cause_audit(n: int = 3):
    """(queries, disagreements) of is_weak_cause against
    weak_cause_bruteforce: every model in both contexts, every single cause
    of every single-variable effect on another variable."""
    queries, wrong = 0, []
    for model in binary_models(n):
        endo = model.endogenous
        for u in (0, 1):
            context = {"U": u}
            actual = solve(model, context)
            for x, y in itertools.permutations(endo, 2):
                events, effect = (p(x, actual[x]),), p(y, actual[y])
                for variant in VARIANTS:
                    got = is_weak_cause(CauseQuery(
                        model, context, cause_of(*events), effect,
                        variant=variant)).overall
                    expected = weak_cause_bruteforce(
                        model, context, events, effect,
                        legacy=variant is DefinitionVariant.LEGACY)
                    queries += 1
                    if got != expected:
                        wrong.append(f"{model.name} U={u} {variant.value} "
                                     f"{x} -> {y}: {got}, oracle {expected}")
    return queries, wrong


def all_change_audit(n: int = 2):
    """(queries, disagreements) of the oracle's all-change reading against
    its plain reading: every model in both contexts, every (cause, effect)
    pair of single variables, the two the same variable included."""
    queries, wrong = 0, []
    for model in binary_models(n):
        endo = model.endogenous
        for u in (0, 1):
            context = {"U": u}
            actual = solve(model, context)
            for x, y in itertools.product(endo, repeat=2):
                events, effect = (p(x, actual[x]),), p(y, actual[y])
                got = weak_cause_all_change(model, context, events, effect)
                expected = weak_cause_bruteforce(model, context, events,
                                                 effect)
                queries += 1
                if got != expected:
                    wrong.append(f"{model.name} U={u} {x} -> {y}: "
                                 f"all-change {got}, plain {expected}")
    return queries, wrong


def main() -> int:
    started = time.perf_counter()
    queries, wrong = weak_cause_audit(3)
    print(f"3-variable weak-cause audit: {queries} queries, "
          f"{len(wrong)} disagreements, "
          f"{time.perf_counter() - started:.0f} s")
    for line in wrong[:20]:
        print(line)
    # 49,608 models, 2 contexts and 6 (cause, effect) pairs per variant.
    return 1 if wrong or queries != 595_296 * len(VARIANTS) else 0


if __name__ == "__main__":
    sys.exit(main())
