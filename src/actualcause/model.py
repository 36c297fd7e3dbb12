"""Finite-domain structural causal models.

A model pairs a signature (exogenous variables, endogenous variables, and a
finite domain for each) with one mechanism per endogenous variable.  All
operations here are pure: models, contexts, and assignments are never mutated
after construction (the cause-checking plans a model keeps change no result),
so everything is safe to share across threads.

Values are plain Python ints or strings.  Contexts and assignments are plain
dicts from variable name to value; validation happens at the operation
boundary rather than through wrapper classes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateMechanism,
    MissingMechanism,
    NotRecursive,
    OutOfRangeOutput,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UndeclaredDependency,
    UnknownVariable,
)

Value = int | str
Assignment = dict[str, Value]

# Exhaustive totality verification is skipped above this many input rows;
# mechanisms that large are spot-checked and flagged instead.
TOTALITY_CHECK_BOUND = 2 ** 20

# Fixed-point enumeration refuses outright above this many total assignments.
FIXED_POINT_ENUMERATION_CAP = 2 ** 24

_SPOT_CHECK_SAMPLES = 512

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Domain:
    """Ordered finite set of values; the order is the canonical enumeration."""

    values: tuple[Value, ...]

    def __post_init__(self):
        if not self.values:
            raise OutOfRangeValue("a domain must contain at least one value")
        if len(set(self.values)) != len(self.values):
            raise OutOfRangeValue(f"domain has duplicate values: {self.values}")

    def __contains__(self, value: Value) -> bool:
        return value in self.values

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def domain(*values: Value) -> Domain:
    return Domain(tuple(values))


@dataclass(frozen=True, eq=True)
class Signature:
    """Variable split and per-variable domains.

    Declaration order of the tuples is significant: it fixes topological
    tie-breaking and every canonical enumeration order downstream.
    """

    exogenous: tuple[str, ...]
    endogenous: tuple[str, ...]
    ranges: Mapping[str, Domain] = field(hash=False)

    def __post_init__(self):
        for name in itertools.chain(self.exogenous, self.endogenous):
            if not _IDENT.match(name):
                raise UnknownVariable(f"illegal variable name {name!r}")
        overlap = set(self.exogenous) & set(self.endogenous)
        if overlap:
            raise UnknownVariable(
                f"variables declared both exogenous and endogenous: {sorted(overlap)}")
        if len(set(self.exogenous)) != len(self.exogenous) or \
                len(set(self.endogenous)) != len(self.endogenous):
            raise UnknownVariable("duplicate variable declaration")
        # An empty endogenous tuple is legal only so that fully-clamped
        # submodels stay representable; the text format requires at least one.
        missing = [v for v in itertools.chain(self.exogenous, self.endogenous)
                   if v not in self.ranges]
        if missing:
            raise OutOfRangeValue(f"no domain declared for: {missing}")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.exogenous + self.endogenous

    def domain_of(self, name: str) -> Domain:
        try:
            return self.ranges[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None


class Mechanism:
    """Total rule fixing one endogenous variable from its dependencies.

    The rule is held either as an exhaustive table keyed by dependency-value
    tuples, or as a callable taking a {name: value} mapping.  build_model
    checks tables in place, materialises callables into tables whenever the
    dependency cross-product is small enough to verify exhaustively, and
    gives the model its own copy of each such table.
    """

    __slots__ = ("target", "deps", "table", "fn")

    def __init__(self, target: str, deps: Sequence[str],
                 table: Mapping[tuple[Value, ...], Value] | None = None,
                 fn: Callable[[Mapping[str, Value]], Value] | None = None):
        if (table is None) == (fn is None):
            raise MissingMechanism(
                f"mechanism for {target}: supply exactly one of table or fn")
        self.target = target
        self.deps = tuple(deps)
        self.table = dict(table) if table is not None else None
        self.fn = fn

    @classmethod
    def from_table(cls, target: str, deps: Sequence[str],
                   table: Mapping[tuple[Value, ...], Value]) -> "Mechanism":
        return cls(target, deps, table=table)

    @classmethod
    def from_function(cls, target: str, deps: Sequence[str],
                      fn: Callable[[Mapping[str, Value]], Value]) -> "Mechanism":
        return cls(target, deps, fn=fn)

    @classmethod
    def constant(cls, target: str, value: Value) -> "Mechanism":
        return cls(target, (), table={(): value})

    def value_at(self, env: Mapping[str, Value]) -> Value:
        key = tuple(env[d] for d in self.deps)
        if self.table is not None:
            try:
                return self.table[key]
            except KeyError:
                raise MissingMechanism(
                    f"mechanism for {self.target} has no row for "
                    f"{dict(zip(self.deps, key))}") from None
        return self.fn(dict(zip(self.deps, key)))

    def __repr__(self):
        kind = "table" if self.table is not None else "fn"
        return f"Mechanism({self.target} <- {self.deps}, {kind})"


class CausalModel:
    """Validated model: signature, mechanisms, derived graph and solve order.

    Instances are produced by build_model / submodel and treated as immutable.
    """

    __slots__ = ("name", "signature", "mechanisms", "parents", "recursive",
                 "order", "unverified_totality", "plans")

    def __init__(self, name, signature, mechanisms, parents, recursive, order,
                 unverified_totality):
        self.name = name
        self.signature = signature
        self.mechanisms = mechanisms
        self.parents = parents                # target -> full dependency tuple
        self.recursive = recursive
        self.order = order                    # topological, None if cyclic
        self.unverified_totality = unverified_totality
        self.plans: dict = {}  # cause-checking plans, see cause._Plan

    @property
    def endogenous(self) -> tuple[str, ...]:
        return self.signature.endogenous

    @property
    def exogenous(self) -> tuple[str, ...]:
        return self.signature.exogenous

    def domain_of(self, name: str) -> Domain:
        return self.signature.domain_of(name)

    def endo_edges(self) -> list[tuple[str, str]]:
        """Edges X -> Y between endogenous variables, declaration order."""
        endo = set(self.endogenous)
        return [(p, t) for t in self.endogenous
                for p in self.parents[t] if p in endo]

    def __repr__(self):
        tag = self.name or "model"
        return (f"CausalModel({tag}: {len(self.exogenous)} exogenous, "
                f"{len(self.endogenous)} endogenous)")


@dataclass(frozen=True)
class ExtendedCausalModel:
    """A model plus a rule for which total endogenous settings are allowable.

    ``allowable`` is either an explicit frozenset of value tuples (in
    endogenous declaration order), a predicate over total assignments, or an
    event-formula object understood by the cause checker.  ``None`` means all
    settings are allowable, which makes every verdict coincide with the plain
    model's.
    """

    base: CausalModel
    allowable: Any = None


def _topological_order(endogenous: tuple[str, ...],
                       parents: Mapping[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """Deterministic Kahn order; ties broken by declaration order: each step
    places the earliest-declared variable whose endogenous parents are all
    placed, from a heap of ready declaration indices.  None on a cycle."""
    index = {v: i for i, v in enumerate(endogenous)}
    waiting: list[int] = []  # unplaced endogenous parents per variable
    children: list[list[int]] = [[] for _ in endogenous]
    for i, var in enumerate(endogenous):
        deps = {index[p] for p in parents[var] if p in index}
        waiting.append(len(deps))
        for dep in deps:
            children[dep].append(i)
    ready = [i for i, n in enumerate(waiting) if not n]  # sorted: a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(endogenous[i])
        for child in children[i]:
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(ready, child)
    return tuple(order) if len(order) == len(endogenous) else None


def _verify_mechanism(signature: Signature,
                      mech: Mechanism) -> tuple[Mechanism, bool]:
    """Check totality and range; returns (normalised mechanism, verified).

    A table keyed by exactly the rows of the dependency product, with every
    output in range, is total and is only copied; any other rule is walked
    row by row, which finds the first fault (see build_model)."""
    dep_domains = [signature.domain_of(d).values for d in mech.deps]
    size = math.prod(len(values) for values in dep_domains)
    target_domain = signature.domain_of(mech.target)
    exhaustive = size <= TOTALITY_CHECK_BOUND

    if mech.table is not None:
        if exhaustive and mech.table.keys() == set(
                itertools.product(*dep_domains)) and all(
                map(target_domain.values.__contains__, mech.table.values())):
            return Mechanism.from_table(mech.target, mech.deps, mech.table), True
        for key in mech.table:
            if len(key) != len(mech.deps):
                raise MissingMechanism(
                    f"mechanism for {mech.target}: row {key} does not match "
                    f"dependencies {mech.deps}")
            for value, values in zip(key, dep_domains):
                if value not in values:
                    raise OutOfRangeValue(
                        f"mechanism for {mech.target}: row key {key} uses a "
                        f"value outside its dependency's domain")

    if exhaustive:
        rows: Iterable[tuple[Value, ...]] = itertools.product(*dep_domains)
    else:
        # Too large to verify exhaustively: deterministic spot check only.
        rng = random.Random(0xAC2)
        rows = (tuple(rng.choice(values) for values in dep_domains)
                for _ in range(_SPOT_CHECK_SAMPLES))
    # Each row env holds exactly the dependencies, so a callable rule can
    # take it as is.
    evaluate = mech.value_at if mech.fn is None else mech.fn
    table: dict[tuple[Value, ...], Value] = {}
    for key in rows:
        env = dict(zip(mech.deps, key))
        out = evaluate(env)
        if out not in target_domain:
            raise OutOfRangeOutput(
                f"mechanism for {mech.target} yields {out!r} at {env}, "
                f"outside domain {target_domain.values}",
                target=mech.target, inputs=env)
        table[key] = out
    if not exhaustive:
        return mech, False
    return Mechanism.from_table(mech.target, mech.deps, table), True


def build_model(signature: Signature, mechanisms: Iterable[Mechanism], *,
                name: str | None = None, verify: bool = True) -> CausalModel:
    """Validate mechanisms against the signature and derive graph facts.

    Totality and output range are verified exhaustively when the dependency
    cross-product has at most ``TOTALITY_CHECK_BOUND`` rows: a table in
    place, and the model keeps its own copy; a function row by row, into a
    table.
    Larger mechanisms are spot-checked and listed in ``unverified_totality``.
    The first fault raises: a stray table key (wrong length, or a value
    outside its dependency's domain) in table order, then a missing row
    (MissingMechanism) or an out-of-range output (OutOfRangeOutput, with the
    ``target`` and ``inputs``) in domain-product order.
    ``verify=False`` skips verification: the rules are kept as given.
    """
    declared = set(signature.variables)
    endo_set = set(signature.endogenous)
    by_target: dict[str, Mechanism] = {}
    for mech in mechanisms:
        if mech.target in by_target:
            raise DuplicateMechanism(f"two mechanisms for {mech.target}")
        if mech.target not in endo_set:
            raise UndeclaredDependency(
                f"mechanism target {mech.target!r} is not an endogenous variable")
        for dep in mech.deps:
            if dep not in declared:
                raise UndeclaredDependency(
                    f"mechanism for {mech.target} depends on undeclared {dep!r}")
            if dep == mech.target:
                raise UndeclaredDependency(
                    f"mechanism for {mech.target} may not depend on itself")
        by_target[mech.target] = mech
    missing = [v for v in signature.endogenous if v not in by_target]
    if missing:
        raise MissingMechanism(f"no mechanism for: {missing}")

    normalised: dict[str, Mechanism] = {}
    unverified: list[str] = []
    for target in signature.endogenous:
        mech = by_target[target]
        if verify:
            mech, ok = _verify_mechanism(signature, mech)
            if not ok:
                unverified.append(target)
        normalised[target] = mech

    parents = {t: normalised[t].deps for t in signature.endogenous}
    order = _topological_order(signature.endogenous, parents)
    return CausalModel(name, signature, normalised, parents,
                       recursive=order is not None, order=order,
                       unverified_totality=tuple(unverified))


def is_recursive(model: CausalModel) -> bool:
    """True iff the endogenous dependency graph is acyclic."""
    return model.recursive


def _check_context(model: CausalModel, context: Mapping[str, Value],
                   label: str = "context", *, unknown=UnknownVariable,
                   outside=OutOfRangeValue, missing=UnknownVariable) -> None:
    """The one context check: ``context`` assigns only exogenous variables,
    each a value in its range, and assigns every exogenous variable.  The
    first fault, in assignment order, raises ``unknown``, ``outside`` or
    ``missing`` of a message that names the context ``label``; the text
    format passes its own diagnostic classes."""
    for name, value in context.items():
        if name not in model.exogenous:
            raise unknown(f"{label} assigns non-exogenous {name!r}")
        if value not in model.domain_of(name):
            raise outside(f"{label} value {value!r} outside domain of {name}")
    for name in model.exogenous:
        if name not in context:
            raise missing(f"{label} does not assign exogenous {name!r}")


def _check_intervention(model: CausalModel,
                        intervention: Mapping[str, Value]) -> None:
    endo = set(model.endogenous)
    for name, value in intervention.items():
        if name not in endo:
            # Exogenous variables are fixed by the context and can never be
            # intervention targets.
            raise UnknownVariable(
                f"cannot intervene on {name!r}: not an endogenous variable")
        if value not in model.domain_of(name):
            raise OutOfRangeValue(
                f"intervention value {value!r} outside domain of {name}")


def submodel(model: CausalModel,
             intervention: Mapping[str, Value]) -> CausalModel:
    """Model with the intervened variables clamped and removed.

    Remaining mechanisms have the clamped variables substituted by their fixed
    values, and the result is built and verified like any model: small rules
    become tables again, and larger ones are spot-checked and listed in
    ``unverified_totality``.  The dependency graph is recomputed from the
    restricted rules.
    """
    _check_intervention(model, intervention)
    if not intervention:
        return model

    sig = model.signature
    new_endo = tuple(v for v in sig.endogenous if v not in intervention)
    kept_ranges = {v: sig.ranges[v] for v in sig.exogenous}
    kept_ranges.update({v: sig.ranges[v] for v in new_endo})

    new_mechs: list[Mechanism] = []
    for target in new_endo:
        mech = model.mechanisms[target]
        fixed = {d: intervention[d] for d in mech.deps if d in intervention}
        if fixed:
            mech = Mechanism.from_function(
                target, [d for d in mech.deps if d not in fixed],
                lambda env, mech=mech, fixed=fixed: mech.value_at(
                    {**env, **fixed}))
        new_mechs.append(mech)
    return build_model(Signature(sig.exogenous, new_endo, kept_ranges),
                       new_mechs, name=model.name)


def solve(model: CausalModel, context: Mapping[str, Value],
          intervention: Mapping[str, Value] | None = None) -> Assignment:
    """Unique simultaneous solution of a recursive model in a context.

    With an intervention, the clamped variables keep their clamped values and
    every other mechanism is evaluated under them, which equals solving the
    corresponding submodel and re-adding the clamps.
    """
    if not model.recursive:
        raise NotRecursive(
            "model has cyclic dependencies; use solve_all instead")
    _check_context(model, context)
    intervention = intervention or {}
    _check_intervention(model, intervention)
    env: dict[str, Value] = dict(context)
    for name in model.order:
        env[name] = (intervention[name] if name in intervention
                     else model.mechanisms[name].value_at(env))
    return {v: env[v] for v in model.endogenous}


def solve_all(model: CausalModel, context: Mapping[str, Value],
              intervention: Mapping[str, Value] | None = None, *,
              cap: int = FIXED_POINT_ENUMERATION_CAP) -> list[Assignment]:
    """All simultaneous solutions, by exhaustive fixed-point enumeration.

    Works on cyclic models; a recursive model always yields exactly the
    solve() result.  Deterministic order: the domain-product order over
    endogenous variables in declaration order.
    """
    _check_context(model, context)
    intervention = intervention or {}
    _check_intervention(model, intervention)

    endo = model.endogenous
    columns = [(model.domain_of(v).values if v not in intervention
                else (intervention[v],)) for v in endo]
    total = math.prod(len(col) for col in columns)
    if total > cap:
        raise SearchSpaceTooLarge(
            f"{total} candidate assignments exceed the cap of {cap}")

    free = [v for v in endo if v not in intervention]
    solutions: list[Assignment] = []
    base_env = {**context, **intervention}
    for combo in itertools.product(*columns):
        env = dict(base_env)
        env.update(zip(endo, combo))
        if all(model.mechanisms[v].value_at(env) == env[v] for v in free):
            solutions.append({v: env[v] for v in endo})
    return solutions


def check_fixed_point(model: CausalModel, context: Mapping[str, Value],
                      assignment: Mapping[str, Value]) -> bool:
    """True iff every mechanism reproduces the assigned value of its target."""
    _check_context(model, context)
    for name in model.endogenous:
        if name not in assignment:
            raise UnknownVariable(f"assignment does not cover {name!r}")
        if assignment[name] not in model.domain_of(name):
            raise OutOfRangeValue(
                f"assignment value {assignment[name]!r} outside domain of {name}")
    env = {**context, **{v: assignment[v] for v in model.endogenous}}
    return all(model.mechanisms[v].value_at(env) == env[v]
               for v in model.endogenous)


def all_contexts(model: CausalModel) -> Iterator[Assignment]:
    """Every total exogenous assignment, in domain-product order."""
    names = model.exogenous
    for combo in itertools.product(*(model.domain_of(u).values for u in names)):
        yield dict(zip(names, combo))


def descendants(model: CausalModel, var: str,
                include_self: bool = True) -> frozenset[str]:
    """Endogenous variables reachable from ``var`` along mechanism edges."""
    if var not in set(model.endogenous):
        raise UnknownVariable(f"{var!r} is not an endogenous variable")
    children: dict[str, list[str]] = {v: [] for v in model.endogenous}
    for parent, target in model.endo_edges():
        children[parent].append(target)
    seen: set[str] = set()
    stack = [var]
    while stack:
        node = stack.pop()
        for child in children[node]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    if include_self:
        seen.add(var)
    return frozenset(seen)
