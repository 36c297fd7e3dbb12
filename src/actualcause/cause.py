"""Actual-cause checking over finite recursive structural causal models.

The checker decides whether a conjunction of primitive events X=x qualifies as
a cause of an event formula under the three-clause counterfactual definition:

  AC1  X=x and the effect both hold in the solved actual world.
  AC2  Some split of the endogenous variables into a candidate causal process
       Z (containing X) and a contingency set W, together with settings x' of
       X and w' of W, satisfies:
       (a) clamping X to x' and W to w' defeats the effect, and
       (b) clamping X back to x while any subset of W is held at w' and any
           subset of Z is pinned to its actual values leaves the effect true.
  AC3  No strict sub-conjunction of X=x already satisfies AC1 and AC2.

Three definition variants are supported.  ``updated`` is the default reading
of clause (b) above.  ``legacy`` quantifies (b) only over the full contingency
set W (subsets of Z are still pinned arbitrarily); it is more permissive and
kept for comparison.  ``strong`` additionally requires (c): clamping X to x
forces the effect under *every* setting of W; its necessity direction demands
that every full deviation of the cause tuple defeats the effect under the
chosen contingency (see is_strong_cause).

In an extended model, an intervention scenario only participates in the
quantifiers of AC2 when the total endogenous assignment it solves to is
allowable; disallowed scenarios fall outside both the existential in (a) and
the universal in (b)/(c).

All searches enumerate contingency sets by size and then declaration order,
and settings in domain-product order, so first witnesses, witness lists, and
verdicts are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    DisallowedActualWorld,
    EffectNotActual,
    NoCause,
    NotContrastive,
    NotRecursive,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UnknownVariable,
)
from .formula import (
    And,
    Formula,
    Not,
    Prim,
    conj,
    entails,
    eval_event,
    event_vars,
    satisfiable_together,
    validate_event_formula,
)
from .model import CausalModel, ExtendedCausalModel, Value, solve

DEFAULT_MAX_VARS = 16


class DefinitionVariant(str, Enum):
    UPDATED = "updated"
    LEGACY = "legacy"
    STRONG = "strong"


@dataclass(frozen=True)
class CandidateCause:
    """Conjunction of primitive events with pairwise distinct variables."""

    events: tuple[Prim, ...]

    def __post_init__(self):
        if not self.events:
            raise UnknownVariable("a candidate cause needs at least one conjunct")
        names = [e.var for e in self.events]
        if len(set(names)) != len(names):
            raise UnknownVariable(f"cause repeats a variable: {names}")

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(e.var for e in self.events)

    @property
    def values(self) -> tuple[Value, ...]:
        return tuple(e.value for e in self.events)

    def as_formula(self) -> Formula:
        return conj(*self.events)

    def __str__(self):
        return " & ".join(f"{e.var}={e.value}" for e in self.events)


def cause_of(*events: Prim) -> CandidateCause:
    return CandidateCause(tuple(events))


@dataclass(frozen=True)
class Witness:
    """Choice certifying AC2: the contingency set, its setting, the cause
    deviation used in (a), and the pinned actual values of the process side."""

    w_set: tuple[str, ...]
    x_prime: tuple[Value, ...]
    w_prime: tuple[Value, ...]
    z_star: tuple[tuple[str, Value], ...]

    def z_vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.z_star)


@dataclass
class SearchStats:
    partitions_examined: int = 0
    settings_examined: int = 0


@dataclass(frozen=True)
class CauseVerdict:
    """Per-clause outcome of a cause query.

    ``ac3`` and ``ac2c`` are None when the corresponding clause was not part
    of the query (weak checks skip AC3; only the strong variant has AC2(c)).
    ``overall`` is the conjunction of every evaluated clause.
    """

    ac1: bool
    ac2: bool
    witness: Witness | None
    ac3: bool | None
    ac3_violator: tuple[Prim, ...] | None
    ac2c: bool | None
    self_entailed: bool
    overall: bool
    variant: DefinitionVariant
    stats: SearchStats


@dataclass(frozen=True)
class CauseQuery:
    model: CausalModel | ExtendedCausalModel
    context: Mapping[str, Value]
    cause: CandidateCause
    effect: Formula
    variant: DefinitionVariant = DefinitionVariant.UPDATED
    exclude_self: bool = False
    max_vars: int = DEFAULT_MAX_VARS


# Key slot of a variable that the scenario leaves to its mechanism; not None,
# since a Domain may contain None.
_FREE = object()

# The eight probe outcomes; every cache entry points at one of them.
_OUTCOMES = {o: o for o in itertools.product((False, True), repeat=3)}

# One process-wide copy of each witness part (variable tuples, value tuples,
# (variable, value) pairs and their tuples), so that callers that keep the
# witnesses of many queries hold few objects.  Keys are reprs, which tell 1
# from True; the table is emptied when full, which only costs fresh copies.
_PARTS: dict[str, tuple] = {}
_PARTS_CAP = 1 << 14


def _part(part: tuple) -> tuple:
    if len(_PARTS) >= _PARTS_CAP:
        _PARTS.clear()
    return _PARTS.setdefault(repr(part), part)


# Compiled probe kernels by source text.  A source holds only slot numbers and
# generated names, so engines over models and formulas of the same shape share
# one code object whatever their tables and values; emptied when full.
_CODE: dict[str, CodeType] = {}
_CODE_CAP = 1 << 8


def _kernel(lines: list[str], namespace: dict) -> Callable[[tuple], tuple]:
    source = "def probe(key):\n " + "\n ".join(lines)
    code = _CODE.get(source)
    if code is None:
        if len(_CODE) >= _CODE_CAP:
            _CODE.clear()
        code = _CODE[source] = compile(source, "<probe>", "exec").co_consts[0]
    return FunctionType(code, namespace)


def _emit(formula: Formula, slot: Mapping[str, int], lines: list[str],
          namespace: dict) -> str:
    """Operand text of a validated event formula in a kernel: a leaf compares
    its slot with a value bound in ``namespace``, and every connective gets
    a line of its own, so that deep formulas stay flat."""
    if isinstance(formula, Prim):
        name = f"E{len(namespace)}"
        namespace[name] = formula.value
        return f"(s{slot[formula.var]} == {name})"
    if isinstance(formula, Not):
        text = "not " + _emit(formula.body, slot, lines, namespace)
    else:
        text = (" and " if isinstance(formula, And) else " or ").join(
            [_emit(part, slot, lines, namespace) for part in formula.parts])
    # An empty conjunction is true and an empty disjunction false.
    lines.append(f"t{len(lines)} = {text or isinstance(formula, And)}")
    return f"t{len(lines) - 1}"


def _row_getter(at: tuple[int, ...]) -> Callable[[list], tuple]:
    """Reader of the items at ``at`` off a sequence, as one tuple."""
    return (itemgetter(*at) if len(at) > 1
            else lambda slots: tuple([slots[i] for i in at]))


class _Engine:
    """Shared state for one search session over (model, context, effect),
    with every input checked once, here.

    A scenario clamps some endogenous variables; its key holds one slot per
    endogenous variable in declaration order, with the clamped value or
    ``_FREE``.  The search makes each contingency set's clause (a) and
    clause (b) keys from one product of per-slot columns, in domain-product
    order.  Each scenario is solved at most once and its outcome memoised,
    which is what makes the subset quantifier in AC2(b) affordable: the same
    scenarios recur across candidate witnesses.  ``defeat`` replaces the
    effect's negation as the goal of clause (a) (used for contrastive
    queries).  ``probe(key)`` gives (effect holds, clause-(a) goal reached,
    allowable): straight-line Python generated here over the cone, the
    endogenous ancestors-or-self of what the effect, the goal and an allow
    formula read (every variable for an allowable set or predicate), since no
    clamp outside it can change an outcome.  It unpacks the key into locals,
    reads each unclamped cone variable off its table in topological order
    (``value_at`` serves function rules and missing rows) and evaluates the
    formulas one connective per line.  Its source names only slots and
    bound globals, so engines of one shape share its code through ``_CODE``.
    """

    def __init__(self, model: CausalModel | ExtendedCausalModel,
                 context: Mapping[str, Value], effect: Formula,
                 cause: CandidateCause | None = None, *,
                 defeat: Formula | None = None,
                 max_vars: int = DEFAULT_MAX_VARS):
        allowable = None
        if isinstance(model, ExtendedCausalModel):
            model, allowable = model.base, model.allowable
        if isinstance(allowable, frozenset | set):
            pool = frozenset(allowable)
            allowable = lambda a: tuple(a[v] for v in model.endogenous) in pool
        whole = callable(allowable)  # a predicate that reads every variable
        reads = [f for f in (None if whole else allowable, effect, defeat)
                 if f is not None]
        self.model = model
        if not model.recursive:
            raise NotRecursive("cause checking requires a recursive model")
        if len(model.endogenous) > max_vars:
            raise SearchSpaceTooLarge(
                f"{len(model.endogenous)} endogenous variables exceed the "
                f"cap of {max_vars}; raise max_vars to search anyway")
        for formula in reads:
            validate_event_formula(model, formula)
        self.context = dict(context)
        self.effect = effect
        self.endo = model.endogenous
        self.index = {v: i for i, v in enumerate(self.endo)}
        for e in cause.events if cause is not None else ():
            if e.var not in self.index:
                raise UnknownVariable(f"{e.var!r} is not an endogenous variable")
            if e.value not in model.domain_of(e.var):
                raise OutOfRangeValue(
                    f"cause value {e.value!r} outside domain of {e.var}")
        self.actual = solve(model, self.context)
        self.domains = {v: model.domain_of(v).values for v in self.endo}
        self.actual_pairs = {v: _part((v, self.actual[v])) for v in self.endo}
        self._actual_slots = list(enumerate(self.actual[v] for v in self.endo))
        self._unclamped = (_FREE,) * len(self.endo)
        self._cache: dict[tuple, tuple[bool, bool, bool]] = {}
        # Clause (b) verdicts per (legacy, cause variables) and pinned key.
        self._b_memo: dict[tuple, dict[tuple, bool]] = {}

        # The kernel: locals s<i> hold the key's endogenous slots, globals
        # c<j> the context; cone variables are solved in topological order.
        todo = [v for f in reads for v in event_vars(f)]
        cone = set(self.endo) if whole else set()
        while todo:
            var = todo.pop()
            if var not in cone:
                cone.add(var)
                todo.extend(d for d in model.parents[var] if d in self.index)
        ns = {"F": _FREE, "OUT": _OUTCOMES, "CACHE": self._cache,
              "GET": self._cache.get, "ENDO": self.endo, "A": allowable}
        ref = {v: f"s{i}" for i, v in enumerate(self.endo)}
        for j, u in enumerate(model.exogenous):
            ref[u], ns[f"c{j}"] = f"c{j}", self.context[u]
        slots = f"({''.join(ref[v] + ', ' for v in self.endo)})"
        lines = ["r = GET(key)", "if r is not None:", " return r",
                 f"{slots} = key"]
        for v in (v for v in model.order if v in cone):
            i, mech = self.index[v], model.mechanisms[v]
            row = f"({''.join(ref[d] + ', ' for d in mech.deps)})"
            ns[f"T{i}"], ns[f"V{i}"], ns[f"D{i}"] = (
                mech.table or {}, mech.value_at, mech.deps)
            # A function rule, or a missing row, which value_at reports.
            lines += [f"if s{i} is F:", f" s{i} = T{i}.get({row}, F)",
                      f" if s{i} is F:",
                      f"  s{i} = V{i}(dict(zip(D{i}, {row})))"]
        emit = lambda f: _emit(f, self.index, lines, ns)
        lines.append(f"h = {emit(effect)}")
        goal = "not h" if defeat is None else emit(defeat)
        allow = ("True" if allowable is None else emit(allowable) if not whole
                 else f"bool(A(dict(zip(ENDO, {slots}))))")
        lines += [f"CACHE[key] = r = OUT[h, {goal}, {allow}]", "return r"]
        self.probe = _kernel(lines, ns)
        if not self.probe(self._unclamped)[2]:
            raise DisallowedActualWorld(
                "the solved actual world violates the allowable-settings rule")

    def key(self, clamps: Iterable[tuple[str, Value]],
            base: tuple | None = None) -> tuple:
        """Key of the scenario ``base`` (default: nothing clamped) with the
        (var, value) ``clamps`` added, for one-off keys (not per setting)."""
        slots = list(self._unclamped if base is None else base)
        for var, value in clamps:
            slots[self.index[var]] = value
        return tuple(slots)

    # -- AC2 clause machinery ------------------------------------------

    def _b_holds(self, pinned: tuple, held: tuple, free: tuple[int, ...],
                 legacy: bool) -> bool:
        """Clause (b): pinning any subset of W at w' and any subset of the
        process side at its actual values must keep the effect true.

        ``held`` clamps the cause variables to their actual values, so
        subsets of Z are taken over Z minus X; pinning a cause variable again
        would repeat the same value.  ``pinned`` fixes the walk: it adds to
        ``held`` every W-pin under the legacy reading, which applies only the
        full contingency set, else only the pins off their actual values.

        Because every optional variable contributes exactly one pinned pair
        (contingency variables at w', process variables at their actuals),
        the pair (W', Z') ranges bijectively over subsets of one combined
        option list of (slot, value) pairs over the ``free`` slots, in
        declaration order.  The quantifier is universal, so the walk order is
        free; subsets are visited smallest-first, which finds violations
        early.
        """
        if legacy:
            held = pinned
        actual, probe = self._actual_slots, self.probe
        options = [actual[i] if pinned[i] is _FREE else (i, pinned[i])
                   for i in free if not legacy or pinned[i] is _FREE]
        for k in range(len(options) + 1):
            for combo in itertools.combinations(options, k):
                slots = list(held)
                for i, value in combo:
                    slots[i] = value
                holds, _, allowed = probe(tuple(slots))
                if allowed and not holds:
                    return False
        return True

    def _c_holds(self, held: tuple, w_set: set[str]) -> bool:
        """Clause (c): X=x forces the effect no matter how W is set."""
        for key in itertools.product(*(self.domains[v] if v in w_set else (h,)
                                       for v, h in zip(self.endo, held))):
            holds, _, allowed = self.probe(key)
            if allowed and not holds:
                return False
        return True

    def witnesses(self, cause: CandidateCause, variant: DefinitionVariant,
                  stats: SearchStats, *,
                  fixed_w: tuple[str, ...] | None = None,
                  x_override: tuple[Value, ...] | None = None,
                  ) -> Iterator[Witness]:
        """Yield AC2 witnesses in canonical order.

        ``fixed_w`` restricts the search to one contingency set, in
        declaration order, which the column products follow (a W slot holds
        its domain, any other slot one value).  ``x_override`` substitutes the
        cause values used on the (b)/(c) side, which implements the weak
        antecedent contrast.  A setting whose clause (b) is already known to
        fail is counted as examined, but its clause (a) probes are skipped.
        """
        xvars = cause.vars
        held = self.key(zip(xvars, x_override if x_override is not None
                            else cause.values))
        free = tuple(v for v in self.endo if v not in xvars)
        legacy = variant is DefinitionVariant.LEGACY
        strong = variant is DefinitionVariant.STRONG
        memo = self._b_memo.setdefault((legacy, xvars), {})
        memo_get, probe, domains = memo.get, self.probe, self.domains
        free_slots = tuple(self.index[v] for v in free)
        # Clause (b) keys keep only the pins that fix the walk (see _b_holds).
        pins = {v: tuple(x if legacy or x != self.actual[v] else _FREE
                         for x in domains[v]) for v in free}

        w_choices = [fixed_w] if fixed_w is not None else (
            w_set for k in range(len(free) + 1)
            for w_set in itertools.combinations(free, k))
        if strong:
            # One pass per w': clause (a) tries every deviation at once.
            deviations = list(itertools.product(
                *(tuple(v for v in domains[x] if v != val)
                  for x, val in zip(xvars, cause.values))))
            if not deviations:
                return  # a single-valued cause variable admits no deviation
            n = len(self.endo)  # place(key + x_dev) lays x_dev over key
            place = _row_getter(tuple(n + xvars.index(v) if v in xvars else i
                                      for i, v in enumerate(self.endo)))
            bases = [(None, self._unclamped)]
        else:
            # Clamping X at its actual value can never satisfy both (a) and
            # (b); skipping it is verdict-preserving.
            bases = [(x, self.key(zip(xvars, x))) for x in itertools.product(
                *(domains[x] for x in xvars)) if x != cause.values]
        for w_set in w_choices:
            stats.partitions_examined += 1
            in_w = set(w_set)
            pin_cols = [pins[v] if v in in_w else (h,)
                        for v, h in zip(self.endo, held)]
            c_ok = None  # clause (c), walked at most once per W
            for x_prime, base in bases:
                cols = [domains[v] if v in in_w else (b,)
                        for v, b in zip(self.endo, base)]
                for key, pinned in zip(itertools.product(*cols),
                                       itertools.product(*pin_cols)):
                    stats.settings_examined += 1
                    ok = memo_get(pinned)  # None: not walked yet
                    if ok is False:
                        continue
                    if strong:
                        x_used = self._all_deviations_defeat(key, place,
                                                             deviations)
                        reached = allowed = x_used is not None
                    else:
                        x_used, (_, reached, allowed) = x_prime, probe(key)
                    if not (allowed and reached):
                        continue
                    if ok is None:
                        ok = memo[pinned] = self._b_holds(pinned, held,
                                                          free_slots, legacy)
                    if ok and strong and c_ok is None:
                        c_ok = self._c_holds(held, in_w)
                    if ok and (not strong or c_ok):
                        w_prime = tuple([key[self.index[w]] for w in w_set])
                        z_star = tuple([self.actual_pairs[v] for v in self.endo
                                        if v not in in_w])
                        yield Witness(_part(w_set), _part(x_used),
                                      _part(w_prime), _part(z_star))

    def _all_deviations_defeat(self, wkey: tuple, place, deviations
                               ) -> tuple[Value, ...] | None:
        """Strong clause (a): every full deviation of the cause tuple defeats
        the effect under the contingency; returns the first allowable
        deviation as the recorded x' (None if any fails or none is allowable).
        """
        first: tuple[Value, ...] | None = None
        for x_dev in deviations:
            _, reached, allowed = self.probe(place(wkey + x_dev))
            if allowed and not reached:
                return None
            if allowed and first is None:
                first = x_dev
        return first

    def first_witness(self, cause, variant, stats, **kw) -> Witness | None:
        return next(self.witnesses(cause, variant, stats, **kw), None)

    def ac1(self, cause: CandidateCause) -> bool:
        return (all(self.actual[e.var] == e.value for e in cause.events)
                and eval_event(self.actual, self.effect))


def is_weak_cause(query: CauseQuery) -> CauseVerdict:
    """AC1 + AC2 under the query's variant; AC3 is not evaluated."""
    engine = _Engine(query.model, query.context, query.effect, query.cause,
                     max_vars=query.max_vars)
    return _verdict(engine, query.cause, query.variant, query.exclude_self,
                    minimal=False)


def is_actual_cause(query: CauseQuery) -> CauseVerdict:
    """AC1 + AC2 + AC3 under the query's variant."""
    engine = _Engine(query.model, query.context, query.effect, query.cause,
                     max_vars=query.max_vars)
    return _verdict(engine, query.cause, query.variant, query.exclude_self)


def _verdict(engine, cause, variant, exclude_self=False, stats=None, *,
             minimal=True) -> CauseVerdict:
    """AC1 + AC2, with clause (a) aiming at the engine's goal, and AC3 if
    ``minimal``; ``stats``, if given, receives the search counts.

    AC3 asks that no strict nonempty sub-conjunction pass AC1 + AC2.  AC1
    for a sub-conjunction follows from the full cause's AC1, so only the AC2
    search runs for it.  The empty conjunction can never satisfy both (a)
    and (b) and is skipped.
    """
    stats = stats or SearchStats()
    ac1 = engine.ac1(cause)
    witness = engine.first_witness(cause, variant, stats)
    ac2 = witness is not None
    self_entailed = exclude_self and entails(
        engine.domains, cause.as_formula(), engine.effect)
    ac3 = violator = None
    if minimal and ac1 and ac2:
        subs = (sub for k in range(1, len(cause.events))
                for sub in itertools.combinations(cause.events, k))
        violator = next((sub for sub in subs if engine.first_witness(
            CandidateCause(sub), variant, stats) is not None), None)
        ac3 = violator is None
    ac2c = ac2 if variant is DefinitionVariant.STRONG else None
    return CauseVerdict(ac1=ac1, ac2=ac2, witness=witness, ac3=ac3,
                        ac3_violator=violator, ac2c=ac2c,
                        self_entailed=self_entailed,
                        overall=(ac1 and ac2 and not self_entailed
                                 and ac3 is not False),
                        variant=variant, stats=stats)


def is_strong_cause(query: CauseQuery) -> CauseVerdict:
    """Strong causation: AC1, AC2(a,b,c), and minimality against the same
    three clauses.

    The sufficiency side is clause (c): clamping the cause at its actual
    values forces the effect under every setting of the contingency set.  The
    necessity side strengthens clause (a): under the chosen contingency
    setting, *every* alternative tuple that moves each cause variable off its
    actual value must defeat the effect (at least one such alternative must be
    allowable).  With the merely existential (a), a single escape value that
    defeats the effect on its own would certify any conjunct, which breaks
    minimal conjoined strong causes; the universal reading keeps singleton and
    conjunctive strong-cause verdicts consistent.
    """
    return is_actual_cause(replace(query, variant=DefinitionVariant.STRONG))


def enumerate_witnesses(query: CauseQuery, *,
                        stats: SearchStats | None = None) -> list[Witness]:
    """All AC2 witnesses in canonical order; empty iff AC2 fails.  The
    search counts are added into ``stats`` when it is given."""
    engine = _Engine(query.model, query.context, query.effect, query.cause,
                     max_vars=query.max_vars)
    return list(engine.witnesses(query.cause, query.variant,
                                 stats or SearchStats()))


def enumerate_causes(model: CausalModel | ExtendedCausalModel,
                     context: Mapping[str, Value], effect: Formula, *,
                     variant: DefinitionVariant = DefinitionVariant.UPDATED,
                     max_conjuncts: int = 1, exclude_self: bool = False,
                     max_vars: int = DEFAULT_MAX_VARS,
                     stats: SearchStats | None = None) -> list[CandidateCause]:
    """All cause conjunctions of bounded width whose verdict is positive.

    Candidate conjuncts take their actual values (anything else fails AC1).
    Canonical order: conjunct count, then variable declaration order.  The
    search counts are added into ``stats`` when it is given.
    """
    engine = _Engine(model, context, effect, max_vars=max_vars)
    if not eval_event(engine.actual, effect):
        raise EffectNotActual(
            "the effect does not hold in the actual world (AC1 can never hold)")
    found: list[CandidateCause] = []
    for k in range(1, min(max_conjuncts, len(engine.endo)) + 1):
        for combo in itertools.combinations(engine.endo, k):
            cause = CandidateCause(tuple(Prim(v, engine.actual[v])
                                         for v in combo))
            if exclude_self and entails(engine.domains, cause.as_formula(),
                                        effect):
                continue
            if _verdict(engine, cause, variant, stats=stats).overall:
                found.append(cause)
    return found


def active_processes(model: CausalModel | ExtendedCausalModel,
                     context: Mapping[str, Value], cause: CandidateCause,
                     effect: Formula, *,
                     variant: DefinitionVariant = DefinitionVariant.UPDATED,
                     max_vars: int = DEFAULT_MAX_VARS,
                     stats: SearchStats | None = None,
                     ) -> list[tuple[str, ...]]:
    """Inclusion-minimal process sets Z whose complement admits a witness.

    Raises NoCause when no split works at all (AC2 fails outright).  The
    search counts are added into ``stats`` when it is given.
    """
    engine = _Engine(model, context, effect, cause, max_vars=max_vars)
    stats = stats or SearchStats()
    if not engine.ac1(cause):
        raise NoCause(f"{cause} or the effect fails to hold in the actual world")
    free = tuple(v for v in engine.endo if v not in cause.vars)
    admitting: list[tuple[str, ...]] = []
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            w_set = tuple(v for v in free if v not in extra)
            if engine.first_witness(cause, variant, stats,
                                    fixed_w=w_set) is not None:
                admitting.append(tuple(v for v in engine.endo
                                       if v not in w_set))
    if not admitting:
        raise NoCause(f"{cause} admits no witness against the effect")
    minimal = [z for z in admitting
               if not any(set(other) < set(z) for other in admitting)]
    minimal.sort(key=lambda z: (len(z), tuple(engine.index[v] for v in z)))
    return minimal


def contrastive_cause(query: CauseQuery, mode: str, *,
                      effect_alternative: Formula | None = None,
                      value_alternative: Value | None = None) -> CauseVerdict:
    """Contrastive readings of a cause query.

    ``consequent``:        X=x caused the effect as opposed to the given
                           alternative outcome; clause (a) must reach the
                           alternative instead of the bare negation.
    ``antecedent_strong``: X=x rather than X=x' caused the effect, and setting
                           X to x' alone would have defeated it.
    ``antecedent_weak``:   X=x rather than X=x' caused the effect, and x'
                           fails only by not being actual: the no-side-effect
                           clause (b) accepts x' in place of x.
    """
    engine = _Engine(query.model, query.context, query.effect, query.cause,
                     defeat=effect_alternative if mode == "consequent" else None,
                     max_vars=query.max_vars)
    cause, variant = query.cause, query.variant
    if mode == "consequent":
        if effect_alternative is None:
            raise NotContrastive("consequent contrast needs an alternative outcome")
        if satisfiable_together(engine.domains, query.effect, effect_alternative):
            raise NotContrastive(
                "the contrasted outcomes are jointly satisfiable")
        return _verdict(engine, cause, variant, query.exclude_self)

    if mode not in ("antecedent_strong", "antecedent_weak"):
        raise NotContrastive(f"unknown contrast mode {mode!r}")
    if len(cause.events) != 1:
        raise NotContrastive("antecedent contrast needs a single-conjunct cause")
    if value_alternative is None:
        raise NotContrastive("antecedent contrast needs an alternative value")
    xvar, xval = cause.events[0].var, cause.events[0].value
    if value_alternative == xval:
        raise NotContrastive("the alternative value must differ from the actual one")
    if value_alternative not in engine.model.domain_of(xvar):
        raise OutOfRangeValue(
            f"alternative value {value_alternative!r} outside domain of {xvar}")

    base = _verdict(engine, cause, variant, query.exclude_self)
    if not base.overall:
        return base
    if mode == "antecedent_strong":
        holds, _, _ = engine.probe(engine.key([(xvar, value_alternative)]))
        extra_ok = not holds
    else:
        extra_ok = engine.first_witness(
            cause, variant, base.stats,
            x_override=(value_alternative,)) is not None
    return replace(base, overall=base.overall and extra_ok)


def classify_contributory(query: CauseQuery) -> str:
    """Split weak causes by whether some witness keeps the contingency set at
    its solved actual values.

    Returns ``"actual_with_actual_contingency"`` when such a witness exists,
    ``"contributory_only"`` when the candidate is a weak cause but every
    witness bends some contingency variable away from its actual value, and
    ``"not_a_cause"`` otherwise.
    """
    engine = _Engine(query.model, query.context, query.effect, query.cause,
                     max_vars=query.max_vars)
    if not engine.ac1(query.cause):
        return "not_a_cause"
    any_witness = False
    for witness in engine.witnesses(query.cause, query.variant, SearchStats()):
        any_witness = True
        if all(value == engine.actual[var]
               for var, value in zip(witness.w_set, witness.w_prime)):
            return "actual_with_actual_contingency"
    return "contributory_only" if any_witness else "not_a_cause"
