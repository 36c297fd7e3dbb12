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

Three definition variants are supported, and they differ in three facts (one
table, _Engine._FACTS).  ``updated`` is the reading above.  ``legacy``
holds all of W at w' in (b) (subsets of Z are still pinned arbitrarily); it
is more permissive and kept for comparison.  ``strong`` demands in (a) that
every full deviation of the cause tuple defeats the effect under the chosen
contingency, and adds (c): clamping X to x forces the effect under *every*
setting of W (see is_strong_cause).

In an extended model, an intervention scenario only participates in the
quantifiers of AC2 when the total endogenous assignment it solves to is
allowable; disallowed scenarios fall outside both the existential in (a) and
the universal in (b)/(c).

All searches enumerate contingency sets by size and then declaration order,
and settings in domain-product order, so first witnesses, witness lists, and
verdicts are deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from enum import Enum
from math import comb, prod
from operator import itemgetter, mul
from types import CodeType, FunctionType
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    DisallowedActualWorld,
    EffectNotActual,
    InvalidBound,
    NoCause,
    NotContrastive,
    NotRecursive,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UnknownVariable,
    UnknownVariant,
)
from .formula import (
    And,
    Formula,
    Not,
    Prim,
    conj,
    entails,
    event_vars,
    satisfiable_together,
    validate_event_formula,
)
from .model import (CausalModel, ExtendedCausalModel, Value, descendants,
                    solve)

DEFAULT_MAX_VARS = 16


class DefinitionVariant(str, Enum):
    UPDATED = "updated"
    LEGACY = "legacy"
    STRONG = "strong"


def _variant(variant) -> DefinitionVariant:
    """The DefinitionVariant that ``variant`` is or names by its value; the
    one check of a variant, made before any model is read."""
    try:
        return DefinitionVariant(variant)
    except ValueError:
        raise UnknownVariant(
            f"unknown definition variant {variant!r}; expected one of "
            f"{', '.join(v.value for v in DefinitionVariant)}") from None


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

    def __post_init__(self):
        object.__setattr__(self, "variant", _variant(self.variant))


# Key slot of a variable that the scenario leaves to its mechanism; not None,
# since a Domain may contain None.
_FREE = object()

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


# Compiled probe kernels by source text, each beside its memo of relevant
# clamps per clamp mask, the parent masks that fill it (see
# _Engine._relevant) and its reach masks per slot (see _Engine._b_holds).
# A source holds only slot numbers and generated names, and each cone
# variable's row names its parents' slots, so plans of the same shape share
# one code object, memo, parent list and reach list whatever their tables
# and values; emptied when full.  It serves callers that rebuild models of
# one shape: bench/run.py re-runs each workload's set-up between passes, so
# every pass queries fresh models of the same shapes.  With each plan
# compiling its own kernel instead, pass_s read 2.0-2.2x slower on onpath,
# 2.7-2.8x on offpath and 1.8-1.9x on golden (two 8-s runs each, 2-core
# box, Python 3.11).
_CODE: dict[str, tuple[CodeType, dict[int, int], list[int],
                       list[tuple[int, int]]]] = {}
_CODE_CAP = 1 << 8
_RELEVANCE_CAP = 1 << 12  # masks per kernel; a memo is emptied when full
# Plans per model, worlds per plan, entries of each of an engine's clause (b)
# memos and values of the learned patterns per held key; each is emptied in
# place when full, which costs only repeated work.
_PLANS_CAP = _WORLDS_CAP = 1 << 6
_MEMO_CAP = 1 << 16
_LEARNED_CAP = 1 << 12


def _kept(table: dict, key, make: Callable[[], object], cap: int):
    """``table[key]``, made at first use and kept, in a table emptied at
    ``cap`` entries, unless the key is unhashable or ``make`` raises.  An entry
    made twice by racing threads is made the same, so no lock is needed."""
    try:
        entry = table.get(key)
    except TypeError:
        return make()
    if entry is None:
        if len(table) >= cap:
            table.clear()
        entry = table[key] = make()
    return entry


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


def _nothing(_key: tuple) -> tuple:
    return ()


@functools.lru_cache(maxsize=1 << 8)
def _sums(sizes: tuple[int, ...]) -> list[list[int]]:
    """``e[c][t]``, the settings of the t-slot sets among free slots c..n-1
    with domain ``sizes``: the elementary symmetric sums of ``sizes[c:]``."""
    n = len(sizes)
    e = [[1] + [0] * n for _ in range(n + 1)]
    for c in range(n - 1, -1, -1):
        for t in range(1, n - c + 1):
            e[c][t] = e[c + 1][t] + sizes[c] * e[c + 1][t - 1]
    return e


def _counts(sizes: tuple[int, ...], blocks: int,
            w: list[int] | None = None) -> tuple[int, int]:
    """(partitions, settings) that a scan over every contingency set, then
    each of its ``blocks`` blocks, then each setting, has examined when it
    reaches the set ``w`` (sorted positions among the free slots, whose
    domain sizes are ``sizes``), its partition counted, or in all when
    ``w`` is None.  Sets run in (size, lex) order, so the partitions are
    w's rank plus one, and the settings ``blocks`` times those of the sets
    before w: those of fewer slots, and for each j those that agree with w
    before its j-th slot c and take a slot in lo..c-1 there, lo being one
    past w's previous slot.  With t the slots of w from the j-th on, those
    have ``e[lo][t] - e[c][t]`` settings (see _sums), and with every size 1
    this is ``comb(n - lo, t) - comb(n - c, t)`` sets.  Setting p of block
    k of ``w`` adds k * size(w) + p + 1 settings."""
    n = len(sizes)
    if w is None:
        return 1 << n, blocks * prod([s + 1 for s in sizes])
    e, m = _sums(sizes), len(w)
    sets, settings = sum([comb(n, k) for k in range(m)]) + 1, sum(e[0][:m])
    weight, lo = 1, 0
    for c in w:  # m: the slots of w from c on
        sets += comb(n - lo, m) - comb(n - c, m)
        settings += weight * (e[lo][m] - e[c][m])
        weight *= sizes[c]
        lo, m = c + 1, m - 1
    return sets, blocks * settings


class _Plan:
    """What the queries on one (model, allow rule, effect, goal) share: the
    formulas, checked once here, the kernel and a world per context (see
    world).  Kept on the model, it holds no reference back to it.

    The kernel ``probe(key)`` gives (effect holds, clause-(a) goal reached,
    allowable), computed afresh on every call: straight-line Python over the
    cone, the endogenous ancestors-or-self of what the effect, the goal and
    an allow formula read (every variable for an allowable set or
    predicate), since no clamp outside it can change an outcome.  It unpacks
    the key into locals, reads each unclamped cone variable off its table in
    topological order (``value_at`` serves function rules and missing rows)
    and evaluates the formulas one connective per line.  Its source names
    only slots, arguments and bound globals, so plans of one shape share its
    code, relevance memo, parent masks and reach masks through ``_CODE``;
    each world binds the code once to its context's values."""

    def __init__(self, model: CausalModel, allowable, effect: Formula,
                 defeat: Formula | None):
        endo = self.endo = model.endogenous
        if isinstance(allowable, frozenset | set):
            pool = frozenset(allowable)
            allowable = lambda a: tuple(a[v] for v in endo) in pool
        whole = callable(allowable)  # a predicate that reads every variable
        reads = [f for f in (None if whole else allowable, effect, defeat)
                 if f is not None]
        for formula in reads:
            validate_event_formula(model, formula)
        index = self.index = {v: i for i, v in enumerate(endo)}
        self.domains = {v: model.domain_of(v).values for v in endo}
        self.values = tuple(self.domains.values())  # by slot
        self.worlds: dict[tuple, tuple] = {}

        # The kernel: locals s<i> hold the key's endogenous slots, arguments
        # c<j> the context; cone variables are solved in topological order.
        todo = [v for f in reads for v in event_vars(f)]
        self.reads = sum({1 << index[v] for v in (endo if whole else todo)})
        cone = set(endo) if whole else set()
        while todo:
            var = todo.pop()
            if var not in cone:
                cone.add(var)
                todo.extend(d for d in model.parents[var] if d in index)
        ns = self.ns = {"F": _FREE, "ENDO": endo, "A": allowable}
        ref = {v: f"s{i}" for i, v in enumerate(endo)}
        ref.update((u, f"c{j}") for j, u in enumerate(model.exogenous))
        slots = f"({''.join(ref[v] + ', ' for v in endo)})"
        lines = [f"{slots} = key"]
        order = [v for v in model.order if v in cone]
        for v in order:
            i, mech = index[v], model.mechanisms[v]
            row = f"({''.join(ref[d] + ', ' for d in mech.deps)})"
            ns[f"T{i}"], ns[f"M{i}"] = mech.table or {}, mech
            # A function rule, or a missing row, which value_at reports.
            lines += [f"if s{i} is F:", f" s{i} = T{i}.get({row}, F)",
                      f" if s{i} is F:",
                      f"  s{i} = M{i}.value_at(dict(zip(M{i}.deps, {row})))"]
        emit = lambda f: _emit(f, index, lines, ns)
        lines.append(f"h = {emit(effect)}")
        goal = "not h" if defeat is None else emit(defeat)
        allow = ("True" if allowable is None else emit(allowable) if not whole
                 else f"bool(A(dict(zip(ENDO, {slots}))))")
        lines.append(f"return h, {goal}, {allow}")
        source = (f"def probe(key"
                  f"{''.join(', ' + ref[u] for u in model.exogenous)}):\n "
                  + "\n ".join(lines))

        def compiled():  # with an empty memo, each slot's reach and each
            # cone variable's (bit, endogenous parent mask), children first
            return (compile(source, "<probe>", "exec").co_consts[0], {},
                    [sum(1 << index[v] for v in descendants(model, d, False)
                         if v in cone) for d in endo],
                    [(1 << index[v], sum({1 << index[d] for d in
                                          model.parents[v] if d in index}))
                     for v in reversed(order)])
        self.code, self.relevance, self.reach, self.parents = _kept(
            _CODE, source, compiled, _CODE_CAP)

    def world(self, model: CausalModel, context: Mapping[str, Value]) -> tuple:
        """(actual world, its (variable, value) witness parts, its values by
        slot, the kernel bound to the context's values, whether the effect
        holds) in ``context``, or DisallowedActualWorld."""
        actual = solve(model, context)
        probe = FunctionType(self.code, self.ns, None,
                             tuple(context[u] for u in model.exogenous))
        holds, _, allowed = probe((_FREE,) * len(self.endo))
        if not allowed:
            raise DisallowedActualWorld(
                "the solved actual world violates the allowable-settings rule")
        return (actual, tuple(_part((v, actual[v])) for v in self.endo),
                tuple(enumerate(map(actual.get, self.endo))), probe, holds)


class _Engine:
    """The search state of one query (clause (b) memo, learned patterns)
    over a plan and a world that queries share (see _Plan), whose kernel is
    the engine's ``probe``.

    A scenario clamps some endogenous variables; its key holds one slot per
    endogenous variable in declaration order, with the clamped value or
    ``_FREE``.  The search makes each contingency set's clause (a) and
    clause (b) keys from products of per-slot columns, in domain-product
    order.  Clause (a) runs over the clamps that can reach what a probe reads
    (see _relevant), and clause (b) failures are learned as patterns over
    their violating pins (see witnesses).  Those, the clause (b) memo and
    the survivor tables are what keep the subset quantifier in AC2(b)
    affordable, so a probe is not memoised: it always runs the kernel.
    ``defeat`` replaces the effect's negation as the goal of clause (a)
    (used for contrastive queries).  Refusals come in this order: bound,
    recursion, size, cause, plan (formulas), world (context, allow rule)."""

    def __init__(self, model: CausalModel | ExtendedCausalModel,
                 context: Mapping[str, Value], effect: Formula,
                 cause: CandidateCause | None = None, *,
                 defeat: Formula | None = None,
                 max_vars: int = DEFAULT_MAX_VARS):
        if max_vars < 1:
            raise InvalidBound(f"max_vars {max_vars} is below 1")
        allowable = None
        if isinstance(model, ExtendedCausalModel):
            model, allowable = model.base, model.allowable
        if not model.recursive:
            raise NotRecursive("cause checking requires a recursive model")
        if len(model.endogenous) > max_vars:
            raise SearchSpaceTooLarge(
                f"{len(model.endogenous)} endogenous variables exceed the "
                f"cap of {max_vars}; raise max_vars to search anyway")
        if cause is not None:
            validate_event_formula(model, cause.as_formula())
        plan = _kept(model.plans, (allowable, effect, defeat),
                     lambda: _Plan(model, allowable, effect, defeat), _PLANS_CAP)
        self.plan, self.context, self.effect = plan, dict(context), effect
        self.endo, self.index, self.domains, self._values, self._relevance = (
            plan.endo, plan.index, plan.domains, plan.values, plan.relevance)
        (self.actual, self.actual_pairs, self._actual_slots, self.probe,
         self.holds) = _kept(plan.worlds, tuple(context.items()),
                             lambda: plan.world(model, context), _WORLDS_CAP)
        # Clause (b) verdicts per (W held, cause variables) and pinned key.
        self._b_memo: dict[tuple, dict[tuple, bool]] = {}
        # Learned clause (b) violations per held key: the violating slots ->
        # (their reader, the pinned values seen there), see witnesses.
        self._learned: dict[tuple, dict[tuple, tuple]] = {}

    def key(self, clamps: Iterable[tuple[str, Value]],
            base: tuple | None = None) -> tuple:
        """Key of the scenario ``base`` (default: nothing clamped) with the
        (var, value) ``clamps`` added, for keys outside the column products."""
        slots = [_FREE] * len(self.endo) if base is None else list(base)
        for var, value in clamps:
            slots[self.index[var]] = value
        return tuple(slots)

    # -- AC2 clause machinery ------------------------------------------

    def _relevant(self, mask: int) -> int:
        """The clamps in ``mask`` (bit i: slot i clamped) whose values can
        change a probe's triple: those that the effect, the goal or the allow
        formula reads, and those with a child that reaches such a variable
        through unclamped variables only.  Changing or freeing any other
        (screened) clamp leaves every variable the kernel reads as it was.
        The answer depends only on the kernel's source, so it is memoised per
        mask beside the compiled code, and a miss walks the cone's parent
        masks there, children first."""
        rel = self._relevance.get(mask)
        if rel is None:
            live, rel = self.plan.reads & ~mask, self.plan.reads & mask
            for bit, parents in self.plan.parents:
                if live & bit:
                    rel |= parents & mask
                    live |= parents & ~mask
            if len(self._relevance) >= _RELEVANCE_CAP:
                self._relevance.clear()
            self._relevance[mask] = rel
        return rel

    def _deviation(self, held: tuple) -> int:
        """The reach of the clamps in ``held`` off their actual values."""
        base = 0
        for (i, value), h in zip(self._actual_slots, held):
            if h is not _FREE and h != value:
                base |= self.plan.reach[i]
        return base

    def _b_holds(self, pinned: tuple, held: tuple, free: tuple[int, ...],
                 base: int | None = None) -> tuple[int, ...] | None:
        """Clause (b): pinning any subset of W at w' and any subset of the
        process side at its actual values must keep the effect true.  Returns
        None when it does, else the sorted slots of a violating subset.

        ``held`` clamps what (b) restores: the cause, so subsets of Z are
        taken over Z minus X (pinning a cause variable again would only
        repeat a clamp), or under the legacy reading, which applies only the
        full contingency set, ``pinned`` itself.  The optional pins are the
        free slots where ``pinned`` differs from ``held``: the W pins, or
        none under the legacy reading.

        A clamp deviates when its value is not actual: a clamp of ``held`` or
        a W pin of the subset.  By induction over the model's order, a
        variable that is no strict descendant of a deviating clamp keeps its
        actual value, so pinning it there solves to the same world, and
        nothing reads a pin outside the cone.  So for each subset of the W
        pins, smallest first, the walk pins at their actual values only
        subsets of the slots that its deviating clamps reach (their strict
        descendants in the cone), and each skipped scenario has the outcome
        of a visited one.  ``pinned``'s values at the violating slots (a w'
        pin, or ``_FREE`` for a pin at its actual value) name the violating
        scenario, which lies in the full walk of every pinned key of the same
        ``held`` that agrees with them there.  ``base``, the reach of the
        held deviations (see _deviation), is the same for every walk of one
        ``held``, so a caller may pass it.
        """
        if base is None:
            base = self._deviation(held)
        actual, reach, probe = self._actual_slots, self.plan.reach, self.probe
        moved = [(i, pinned[i]) for i in free if pinned[i] is not held[i]]
        still = [actual[i] for i in free if pinned[i] is _FREE]
        for k in range(len(moved) + 1):
            for moves in itertools.combinations(moved, k):
                mask, slots = base, list(held)
                for i, value in moves:
                    mask |= reach[i]
                    slots[i] = value
                # An empty reach holds no pin: the walk is one probe.
                options = [pin for pin in still if mask >> pin[0] & 1] if (
                    mask) else ()
                for j in range(len(options) + 1):
                    for pins in itertools.combinations(options, j):
                        key = slots.copy()
                        for i, value in pins:
                            key[i] = value
                        holds, _, allowed = probe(tuple(key))
                        if allowed and not holds:
                            return tuple(sorted(
                                [i for i, _ in moves + pins]))
        return None

    def _every(self, keys: Iterable[tuple], outcome: int) -> int | None:
        """The universal quantifier of clause (c) and of strong clause (a):
        every allowable scenario of ``keys`` must give ``outcome`` (0: the
        effect holds, 1: the goal is reached).  Returns None when one does
        not, else the index of the first allowable scenario, or -1 when none
        is allowable."""
        first = -1
        for k, key in enumerate(keys):
            outcomes = self.probe(key)
            if outcomes[2] and not outcomes[outcome]:
                return None
            if outcomes[2] and first < 0:
                first = k
        return first

    # Does (a) take every deviation in one block, (b) hold W too, (c) run?
    _FACTS = {DefinitionVariant.UPDATED: (False, False, False),
              DefinitionVariant.LEGACY: (False, True, False),
              DefinitionVariant.STRONG: (True, False, True)}

    def witnesses(self, cause: CandidateCause, variant: DefinitionVariant,
                  stats: SearchStats, *, first_per_set: bool = False,
                  x_override: tuple[Value, ...] | None = None,
                  ) -> Iterator[Witness]:
        """Yield AC2 witnesses in canonical order.

        ``first_per_set`` yields each contingency set's first witness only,
        leaving the rest of the set uncounted as abandoning the scan would;
        active_processes is one such scan.  ``x_override`` substitutes the
        cause values used on the (b)/(c) side, which implements the weak
        antecedent contrast.

        A block is one contingency set W and the deviations x' of the cause
        that clause (a) takes (see _FACTS): one x' != x, or every full
        deviation, each of which must then reach the goal (see _every), the
        first allowable one in the cause's conjunct order being recorded.
        W's settings run block by block, each block in domain-product order,
        and a setting's position is its index in that order, so block k
        starts at k times the number of settings of W.  Clause (a) reads only
        W's relevant clamps R (see _relevant): a screened W slot is free in
        its key and ``_FREE`` in the pinned key, so both keys depend on R and
        the block alone.  So each call keeps one survivor table per R, built
        at its first use by one product over R's columns per block: each
        setting of R that passes clause (a), in block order and then R's
        domain-product order, with its block and value indices.  Rows are
        only ever retired, so an R whose table is empty stays so, and a later
        W with that R costs its mask, a _relevant lookup and a dict lookup.
        Otherwise each survivor stands for a box of settings, one per value
        of the screened slots, at the position that its block and its value
        indices times the steps of R's slots in W give; the boxes come in
        position order unless a screened slot precedes a relevant one, and
        are then sorted by position.  Every setting of a box then runs one
        body: the clause (b) memo, the learned patterns, the walk, clause
        (c), and the yield.

        Outside ``legacy`` a failed walk is learned as a pattern: its
        violating slots and the pinned values there (see _b_holds).  A pinned
        key that matches a pattern fails (b) without a walk.  A pattern that
        reads only slots of R fails a survivor's whole box in every W with
        that R, so R's table drops the row for good the next time it is read
        after the call has learned a pattern; a new table counts as never
        filtered, so its rows are probed at build and filtered before use.
        ``legacy`` holds every W pin in its walk, so a failure is no pattern
        that another pinned key could share: it keeps the exact memo only.
        ``stats`` counts what a scan over every setting would have examined,
        but the scan loop counts nothing: the counts follow in closed form
        from the free slots' domain sizes, the number of blocks and the
        witness's (W, block, position) (see _counts), and ``stats`` gets
        what is new since its last report at each yield and at the end, less
        what ``first_per_set`` left uncounted.  A W slot of a pinned key
        holds w' itself, or ``_FREE`` when w' is the actual value (outside
        ``legacy``), so a witness reads w' from its key.
        """
        every_x, hold_w, run_c = self._FACTS[variant]
        xvars = cause.vars
        held = self.key(zip(xvars, x_override if x_override is not None
                            else cause.values))
        base = None if hold_w else self._deviation(held)  # see _b_holds
        memo = self._b_memo.setdefault((hold_w, xvars), {})
        learned = {} if hold_w else self._learned.setdefault(held, {})
        endo, values, probe, memo_get = (self.endo, self._values, self.probe,
                                         memo.get)
        free = tuple(i for i, v in enumerate(endo) if v not in xvars)
        actual = [value for _, value in self._actual_slots]
        # Clause (b) keys keep only the pins that fix the walk (see _b_holds).
        pins = {i: tuple(x if hold_w or x != actual[i] else _FREE
                         for x in values[i]) for i in free}
        bits = [1 << i for i in range(len(endo))]
        sizes = [len(column) for column in values]
        held_cols, spans = [(h,) for h in held], [range(n) for n in sizes]
        x_mask = sum(bits[self.index[x]] for x in xvars)

        # (deviations as shared parts, base columns) per block; see _FACTS.
        if every_x:
            deviations = list(map(_part, itertools.product(
                *(tuple(v for v in self.domains[x] if v != val)
                  for x, val in zip(xvars, cause.values)))))
            if not deviations:
                return  # a single-valued cause variable admits no deviation
            blocks = [(deviations, [(_FREE,)] * len(endo))]
        else:
            # Clamping X at its actual value can never satisfy both (a) and
            # (b); skipping it is verdict-preserving.
            blocks = [((_part(x),), [(b,) for b in self.key(zip(xvars, x))])
                      for x in itertools.product(
                          *(self.domains[x] for x in xvars))
                      if x != cause.values]

        tables = {}  # R -> [learnt when last filtered (-1: never), survivors]
        learnt = 0  # patterns learned by this call

        def survivors(r_mask):
            """(block, value indices, x', pinned key) of each setting of the
            slots of R = ``r_mask`` that passes clause (a), in block order and
            then domain-product order (see above)."""
            relevant = [i for i in free if r_mask >> i & 1]
            rel_pins, table = held_cols.copy(), []
            for i in relevant:
                rel_pins[i] = pins[i]
            for k, (devs, cols) in enumerate(blocks):
                cols = cols.copy()
                for i in relevant:
                    cols[i] = values[i]
                for key, pinned, indices in zip(
                        itertools.product(*cols), itertools.product(*rel_pins),
                        itertools.product(*map(spans.__getitem__, relevant))):
                    if every_x:
                        at = self._every((self.key(zip(xvars, x), key)
                                          for x in devs), 1)
                    else:
                        _, reached, allowed = probe(key)
                        at = 0 if reached and allowed else None
                    if at is not None and at >= 0:
                        table.append((k, indices, devs[at], pinned))
            return table

        def boxes(table, size, steps, screened):
            """(position, x', pinned key) of each setting in the boxes, boxes
            in table order.  ``steps`` holds what one value of each relevant
            slot adds to a position, and ``screened`` the offsets of each
            screened slot."""
            offsets = list(map(sum, itertools.product(*screened.values())))
            for k, indices, x_used, pinned in table:
                box = [(value,) for value in pinned]
                for i in screened:
                    box[i] = pins[i]
                at = k * size + sum(map(mul, indices, steps))
                yield from zip(map(at.__add__, offsets),
                               itertools.repeat(x_used),
                               itertools.product(*box))

        # The partitions and settings reported to ``stats`` so far, and the
        # settings that first_per_set left uncounted in the sets it has
        # witnessed; see _counts.
        shape = tuple(map(sizes.__getitem__, free))
        told_sets = told = short = 0
        for w in itertools.chain.from_iterable(  # no block: no witness
                itertools.combinations(free, k)
                for k in range(len(free) + 1 if blocks else 0)):
            w_mask = sum(map(bits.__getitem__, w))
            r_mask = self._relevant(x_mask | w_mask) & w_mask
            entry = tables.get(r_mask)
            if entry is None:
                entry = tables[r_mask] = [-1, survivors(r_mask)]
            table = entry[1]
            if table and entry[0] != learnt:
                # A pattern that reads only slots of R fails a row's whole box.
                entry[0], inside = learnt, [
                    group for slots, group in learned.items()
                    if all(r_mask >> i & 1 for i in slots)]
                if inside:
                    table[:] = [row for row in table if not any(
                        get(row[3]) in seen for get, seen in inside)]
            if not table:  # rows are only ever retired: R stays dead
                continue
            # Value j of a W slot adds j times the number of settings of the
            # slots after it to the position.
            size = prod(map(sizes.__getitem__, w))
            step, steps, screened = size, [], {}
            for i in w:
                step //= sizes[i]
                if r_mask >> i & 1:
                    steps.append(step)
                else:
                    screened[i] = range(0, sizes[i] * step, step)
            if not screened:
                found = ((k * size + sum(map(mul, indices, steps)), x_used,
                          pinned) for k, indices, x_used, pinned in table)
            else:
                found = boxes(table, size, steps, screened)
                # A screened slot before the last relevant one mixes the
                # boxes' positions; positions are distinct and block-major.
                if r_mask.bit_length() - 1 > min(screened):
                    found = sorted(found)
            c_ok = parts = None  # clause (c), W's parts and counts, once per W
            for at, x_used, pinned in found:
                ok = memo_get(pinned)  # None: not walked yet
                if ok is None:
                    if learned and any(get(pinned) in seen
                                       for get, seen in learned.values()):
                        continue
                    bad = self._b_holds(pinned, pinned if hold_w else held,
                                        free, base)
                    if len(memo) >= _MEMO_CAP:
                        memo.clear()
                    ok = memo[pinned] = bad is None
                    if not (ok or hold_w):
                        if sum(len(seen) for _, seen in
                               learned.values()) >= _LEARNED_CAP:
                            learned.clear()
                        get, seen = learned.setdefault(bad, (
                            itemgetter(*bad) if bad else _nothing, set()))
                        seen.add(get(pinned))
                        learnt += 1
                if not ok:
                    continue
                if run_c and c_ok is None:
                    # Only W's relevant slots need passing: a screened one
                    # cannot change a probe (see _relevant).
                    c_ok = self._every(itertools.product(*(
                        values[i] if r_mask >> i & 1 else (h,)
                        for i, h in enumerate(held))), 0) is not None
                if run_c and not c_ok:
                    break
                if parts is None:
                    parts = (_part(tuple([endo[i] for i in w])),
                             _part(tuple([pair for i, pair in enumerate(
                                 self.actual_pairs) if i not in w])))
                    sets, before = _counts(shape, len(blocks),
                                           [free.index(i) for i in w])
                    stats.partitions_examined += sets - told_sets
                    told_sets, before = sets, before - short
                w_prime = tuple([actual[i] if pinned[i] is _FREE
                                 else pinned[i] for i in w])
                seen = before + at + 1
                stats.settings_examined += seen - told
                told = seen
                yield Witness(parts[0], x_used, _part(w_prime), parts[1])
                if first_per_set:  # the rest of this set goes uncounted
                    short += len(blocks) * size - at - 1
                    break
        sets, seen = _counts(shape, len(blocks))
        stats.partitions_examined += sets - told_sets
        stats.settings_examined += seen - short - told

    def first_witness(self, cause, variant, stats, **kw) -> Witness | None:
        return next(self.witnesses(cause, variant, stats, **kw), None)

    def ac1(self, cause: CandidateCause) -> bool:
        return (all(self.actual[e.var] == e.value for e in cause.events)
                and self.holds)


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
    variant = _variant(variant)
    if max_conjuncts < 1:
        raise InvalidBound(f"max_conjuncts {max_conjuncts} is below 1")
    engine = _Engine(model, context, effect, max_vars=max_vars)
    if not engine.holds:
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

    One witness scan, stopped at each contingency set's first witness, gives
    every admitting Z; read backwards, from the largest W down, smaller Z
    come first, so each Z needs testing only against the minimal ones kept.
    Raises NoCause when no split works at all (AC2 fails outright).  The
    search counts are added into ``stats`` when it is given.
    """
    variant = _variant(variant)
    engine = _Engine(model, context, effect, cause, max_vars=max_vars)
    if not engine.ac1(cause):
        raise NoCause(f"{cause} or the effect fails to hold in the actual world")
    admitting = [w.z_vars() for w in engine.witnesses(
        cause, variant, stats or SearchStats(), first_per_set=True)]
    if not admitting:
        raise NoCause(f"{cause} admits no witness against the effect")
    minimal = []
    for z in reversed(admitting):
        if not any(set(kept) < set(z) for kept in minimal):
            minimal.append(z)
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

    A fault that needs no model comes first, then a bad alternative value.
    """
    cause, variant = query.cause, query.variant
    if mode == "consequent":
        if effect_alternative is None:
            raise NotContrastive("consequent contrast needs an alternative outcome")
        engine = _Engine(query.model, query.context, query.effect, cause,
                         defeat=effect_alternative, max_vars=query.max_vars)
        # This check makes the defeat goal imply "not effect", as clause (a)
        # aiming at the bare negation does: so a scenario that reaches the
        # goal fails the effect, and a contingency set whose relevant clamps
        # hold no cause slot has no witness here either.
        if satisfiable_together(engine.domains, query.effect, effect_alternative):
            raise NotContrastive("the contrasted outcomes are jointly satisfiable")
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
    model = query.model
    model = model.base if isinstance(model, ExtendedCausalModel) else model
    if value_alternative not in model.domain_of(xvar):
        raise OutOfRangeValue(
            f"alternative value {value_alternative!r} outside domain of {xvar}")
    engine = _Engine(query.model, query.context, query.effect, cause,
                     max_vars=query.max_vars)

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
