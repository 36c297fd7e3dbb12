"""Definition-literal brute-force cause checking.

This module re-decides the cause clauses with plain nested loops written
straight off the clause text: no canonical ordering, no skipped candidate
settings, no shared machinery with the production checker in ``cause``.  It
exists so the production search (which prunes and short-circuits) can be
audited against an independent second route on randomised model families.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .errors import DisallowedActualWorld
from .formula import Formula, Prim, eval_event
from .model import CausalModel, Value, solve


def _subsets(items, low: int = 0, high: int | None = None):
    """The subsets of ``items`` as tuples, by size from ``low`` to ``high``
    (default: all of ``items``), each size in ``itertools.combinations``
    order."""
    high = len(items) if high is None else high
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(low, high + 1))


def weak_cause_bruteforce(model: CausalModel, context: Mapping[str, Value],
                          events: tuple[Prim, ...], effect: Formula, *,
                          legacy: bool = False, allow=None) -> bool:
    """AC1 and AC2 by full enumeration of partitions and settings."""
    return _weak_cause(model, context, events, effect, legacy=legacy,
                       allow=allow, all_change=False)


def weak_cause_all_change(model: CausalModel, context: Mapping[str, Value],
                          events: tuple[Prim, ...], effect: Formula) -> bool:
    """AC2 strengthened so that clause (a) must flip the value of every
    variable on the process side, not just defeat the effect.

    This is the "every process variable is active" reading; on finite
    recursive models it decides the same relation as the plain clause, which
    the property suite checks.
    """
    return _weak_cause(model, context, events, effect, legacy=False,
                       allow=None, all_change=True)


def _weak_cause(model, context, events, effect, *, legacy, allow,
                all_change) -> bool:
    """AC1, then AC2 by one scan of every contingency set W (by size), cause
    setting x' and setting w' through clause (a) and clause (b).  Under
    ``all_change``, clause (a) also requires every variable on the process
    side Z to move from its actual value."""
    actual = solve(model, context)
    if allow is not None and not allow(actual):
        raise DisallowedActualWorld("actual world not allowable")
    if not all(actual[e.var] == e.value for e in events):
        return False
    if not eval_event(actual, effect):
        return False
    memo: dict = {}

    def probe(intervention):
        """(effect holds, world allowed, world) under ``intervention``."""
        key = tuple(sorted(intervention.items()))
        if key not in memo:
            sol = solve(model, context, intervention)
            memo[key] = (eval_event(sol, effect),
                         allow is None or bool(allow(sol)), sol)
        return memo[key]

    xvars = [e.var for e in events]
    others = [v for v in model.endogenous if v not in xvars]
    for w_set in _subsets(others):
        z_all = xvars + [v for v in others if v not in w_set]
        for x_prime in itertools.product(
                *(model.domain_of(x).values for x in xvars)):
            for w_prime in itertools.product(
                    *(model.domain_of(w).values for w in w_set)):
                iv_a = dict(zip(xvars, x_prime))
                iv_a.update(zip(w_set, w_prime))
                holds, allowed, sol = probe(iv_a)
                if not allowed or holds:
                    continue
                if all_change and any(sol[z] == actual[z] for z in z_all):
                    continue
                if _b_clause(probe, events, list(zip(w_set, w_prime)),
                             z_all, actual, legacy):
                    return True
    return False


def _b_clause(probe, events, w_pairs, z_all, actual, legacy) -> bool:
    """Clause (b): with X at its actual values, each held W' of W at w'
    (all of W under ``legacy``) and each pinned Z' of Z at its actual values
    keep the effect in every allowed world."""
    for w_sub in _subsets(w_pairs, len(w_pairs) if legacy else 0):
        for z_sub in _subsets(z_all):
            iv = {e.var: e.value for e in events}
            iv.update(w_sub)
            iv.update((z, actual[z]) for z in z_sub)
            holds, allowed, _ = probe(iv)
            if allowed and not holds:
                return False
    return True


def actual_cause_bruteforce(model, context, events, effect, *,
                            legacy: bool = False, allow=None) -> bool:
    """AC1 + AC2 + AC3, each by the brute-force route."""
    if not weak_cause_bruteforce(model, context, events, effect,
                                 legacy=legacy, allow=allow):
        return False
    return not any(weak_cause_bruteforce(model, context, sub, effect,
                                         legacy=legacy, allow=allow)
                   for sub in _subsets(events, 1, len(events) - 1))
