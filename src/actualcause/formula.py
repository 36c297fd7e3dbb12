"""Event formulas and counterfactual formulas over a causal model.

An event formula is a Boolean combination of primitive events ``X = x`` over
endogenous variables.  A counterfactual formula additionally wraps event
formulas in intervention operators: ``Basic(iv, body)`` reads "body holds in
the world arising from clamping the variables in ``iv``"; its diamond form is
the existential dual, which only differs on non-recursive models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .errors import NotRecursive, OutOfRangeValue, UnknownVariable
from .model import (Assignment, CausalModel, Value, _check_intervention,
                    check_fixed_point, solve, solve_all)


@dataclass(frozen=True)
class Prim:
    """Primitive event: the variable has exactly this value."""
    var: str
    value: Value


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Basic:
    """Intervention-prefixed event formula ``[X1<-v1, ...] body``.

    ``intervention`` may be empty, which denotes the plain body.  ``diamond``
    selects the existential reading over solution sets; on recursive models
    the box and diamond readings coincide.
    """
    intervention: tuple[tuple[str, Value], ...]
    body: "Formula"
    diamond: bool = False


Formula = Prim | Not | And | Or | Basic


def p(var: str, value: Value) -> Prim:
    return Prim(var, value)


def conj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def neg(body: Formula) -> Formula:
    return Not(body)


def _leaves(formula: Formula) -> Iterator[Formula]:
    """The Prim and Basic nodes under the Boolean connectives, left to right."""
    if isinstance(formula, Not):
        yield from _leaves(formula.body)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            yield from _leaves(part)
    else:
        yield formula


def _truth(formula: Formula, leaf: Callable[[Formula], bool]) -> bool:
    """Short-circuit value of the connectives, with ``leaf`` deciding every
    node that ``_leaves`` would yield."""
    if isinstance(formula, Not):
        return not _truth(formula.body, leaf)
    if isinstance(formula, And):
        return all(_truth(part, leaf) for part in formula.parts)
    if isinstance(formula, Or):
        return any(_truth(part, leaf) for part in formula.parts)
    return leaf(formula)


def event_vars(formula: Formula) -> tuple[str, ...]:
    """Variables mentioned anywhere in the formula, first-mention order."""
    seen: dict[str, None] = {}
    for leaf in _leaves(formula):
        if isinstance(leaf, Basic):
            seen.update(dict.fromkeys(var for var, _ in leaf.intervention))
            seen.update(dict.fromkeys(event_vars(leaf.body)))
        else:
            seen.setdefault(leaf.var, None)
    return tuple(seen)


def validate_event_formula(model: CausalModel, formula: Formula) -> None:
    """Reject references to non-endogenous variables or out-of-domain values."""
    endo = set(model.endogenous)
    for leaf in _leaves(formula):
        if not isinstance(leaf, Prim):
            raise UnknownVariable("intervention operators are not allowed here")
        if leaf.var not in endo:
            raise UnknownVariable(
                f"formula mentions non-endogenous variable {leaf.var!r}")
        if leaf.value not in model.domain_of(leaf.var):
            raise OutOfRangeValue(
                f"formula value {leaf.value!r} outside domain of {leaf.var}")


def validate_causal_formula(model: CausalModel, formula: Formula) -> None:
    for leaf in _leaves(formula):
        if not isinstance(leaf, Basic):
            validate_event_formula(model, leaf)
            continue
        names = [var for var, _ in leaf.intervention]
        if len(set(names)) != len(names):
            raise UnknownVariable(
                f"intervention clamps a variable twice: {names}")
        _check_intervention(model, dict(leaf.intervention))
        validate_event_formula(model, leaf.body)


def eval_event(assignment: Mapping[str, Value], formula: Formula) -> bool:
    """Standard Boolean evaluation of an event formula at a total assignment."""
    def leaf(f: Formula) -> bool:
        if not isinstance(f, Prim):
            raise UnknownVariable("intervention operators are not event formulas")
        try:
            return assignment[f.var] == f.value
        except KeyError:
            raise UnknownVariable(
                f"assignment does not cover {f.var!r}") from None
    return _truth(formula, leaf)


def eval_formula(model: CausalModel, context: Mapping[str, Value],
                 formula: Formula) -> bool:
    """Truth of a counterfactual formula in a recursive model and context.

    Every Basic node solves the intervened system from scratch; since the
    solution is unique, the box and diamond readings agree here.  Bare
    primitive events share one solve of the actual world.
    """
    if not model.recursive:
        raise NotRecursive("use eval_nonrecursive for cyclic models")
    actual: Assignment | None = None

    def leaf(f: Formula) -> bool:
        nonlocal actual
        if isinstance(f, Basic):
            return eval_event(solve(model, context, dict(f.intervention)), f.body)
        if actual is None:
            actual = solve(model, context)
        return eval_event(actual, f)
    return _truth(formula, leaf)


def eval_nonrecursive(model: CausalModel, context: Mapping[str, Value],
                      actual: Mapping[str, Value], formula: Formula) -> bool:
    """Truth relative to a designated actual world of a possibly cyclic model.

    Bare primitive events read off ``actual``.  A box Basic node requires its
    body in every solution of the intervened system (vacuously true when there
    is none); the diamond form requires some solution (false when none).

    This is the natural generalisation of the recursive semantics, but it is
    the least exercised corner of the package: treat verdicts that hinge on
    multiple or missing solutions with according care.
    """
    if not check_fixed_point(model, context, actual):
        raise ValueError("the designated actual world is not a solution")

    def leaf(f: Formula) -> bool:
        if isinstance(f, Basic):
            sols = solve_all(model, context, dict(f.intervention))
            quantifier = any if f.diamond else all
            return quantifier(eval_event(s, f.body) for s in sols)
        return eval_event(actual, f)
    return _truth(formula, leaf)


def eval_trace(model: CausalModel, context: Mapping[str, Value],
               formula: Formula) -> list[tuple[dict[str, Value], Assignment]]:
    """(intervention, solved world) pairs for every Basic node, in eval order."""
    out: list[tuple[dict[str, Value], Assignment]] = []
    for leaf in _leaves(formula):
        if isinstance(leaf, Basic):
            iv = dict(leaf.intervention)
            out.append((iv, solve(model, context, iv)))
    return out


def satisfiable_together(ranges: Mapping[str, tuple[Value, ...]],
                         *formulas: Formula) -> bool:
    """Whether some assignment over the mentioned variables satisfies all.

    Purely combinatorial: mechanisms play no role, only the domains.
    """
    names: list[str] = []
    for f in formulas:
        for var in event_vars(f):
            if var not in names:
                names.append(var)
    for combo in itertools.product(*(ranges[v] for v in names)):
        env = dict(zip(names, combo))
        if all(eval_event(env, f) for f in formulas):
            return True
    return False


def entails(ranges: Mapping[str, tuple[Value, ...]],
            premise: Formula, conclusion: Formula) -> bool:
    """Whether every domain assignment satisfying ``premise`` satisfies
    ``conclusion`` (no counterexample exists)."""
    return not satisfiable_together(ranges, premise, Not(conclusion))
