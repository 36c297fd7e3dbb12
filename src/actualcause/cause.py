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
from typing import Any, Callable, Iterator, Mapping

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
    Formula,
    Prim,
    conj,
    entails,
    eval_event,
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

    def merged(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(self.partitions_examined + other.partitions_examined,
                           self.settings_examined + other.settings_examined)


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
    max_conjuncts: int | None = None
    max_vars: int = DEFAULT_MAX_VARS


def _compile_allow(model: CausalModel, allowable: Any) -> Callable | None:
    """Normalise the allowable-settings payload to a predicate over total
    endogenous assignments (None means everything is allowable)."""
    if allowable is None:
        return None
    if isinstance(allowable, frozenset | set):
        endo = model.endogenous
        pool = frozenset(allowable)
        return lambda a: tuple(a[v] for v in endo) in pool
    if callable(allowable):
        return allowable
    formula = allowable
    validate_event_formula(model, formula)
    return lambda a: eval_event(a, formula)


class _Engine:
    """Shared state for one (model, context, effect) search session.

    Scenario solutions, their allowability, and the effect's truth value are
    memoised per intervention, which is what makes the subset quantifier in
    AC2(b) affordable: the same scenarios recur across candidate witnesses.
    """

    def __init__(self, model: CausalModel | ExtendedCausalModel,
                 context: Mapping[str, Value], effect: Formula, *,
                 max_vars: int = DEFAULT_MAX_VARS):
        if isinstance(model, ExtendedCausalModel):
            self.model = model.base
            self.allow = _compile_allow(model.base, model.allowable)
        else:
            self.model = model
            self.allow = None
        if not self.model.recursive:
            raise NotRecursive("cause checking requires a recursive model")
        if len(self.model.endogenous) > max_vars:
            raise SearchSpaceTooLarge(
                f"{len(self.model.endogenous)} endogenous variables exceed the "
                f"cap of {max_vars}; raise max_vars to search anyway")
        self.context = dict(context)
        self.effect = effect
        validate_event_formula(self.model, effect)
        self.endo = self.model.endogenous
        self.index = {v: i for i, v in enumerate(self.endo)}
        self.actual = solve(self.model, self.context)
        if self.allow is not None and not self.allow(self.actual):
            raise DisallowedActualWorld(
                "the solved actual world violates the allowable-settings rule")
        self._cache: dict[tuple, tuple[bool, bool]] = {}

    def domain(self, var: str) -> tuple[Value, ...]:
        return self.model.domain_of(var).values

    def probe(self, intervention: Mapping[str, Value]) -> tuple[bool, bool]:
        """(effect holds, scenario allowable) for one intervention."""
        key = tuple(sorted(intervention.items(),
                           key=lambda kv: self.index[kv[0]]))
        return self.probe_key(key)

    def probe_key(self, key: tuple[tuple[str, Value], ...]) -> tuple[bool, bool]:
        """Same as probe for a pre-canonicalised (declaration-ordered) key."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        sol = solve(self.model, self.context, dict(key))
        result = (eval_event(sol, self.effect),
                  True if self.allow is None else bool(self.allow(sol)))
        self._cache[key] = result
        return result

    # -- AC2 clause machinery ------------------------------------------

    def _b_holds(self, xvars: tuple[str, ...], xvals: tuple[Value, ...],
                 w_set: tuple[str, ...], w_prime: tuple[Value, ...],
                 z_free: tuple[str, ...], legacy: bool) -> bool:
        """Clause (b): pinning any subset of W at w' and any subset of the
        process side at its actual values must keep the effect true.

        The cause variables are already clamped to their actual values, so
        subsets of Z are taken over Z minus X; pinning a cause variable again
        would repeat the same value.  Under the legacy reading only the full
        contingency set is applied.

        Because every optional variable contributes exactly one pinned pair
        (contingency variables at w', process variables at their actuals),
        the pair (W', Z') ranges bijectively over subsets of one combined
        option list.  The quantifier is universal, so the walk order is free;
        subsets are visited smallest-first, which finds violations early.
        """
        n_w = len(w_set)
        slots = [(self.index[v], v, val, -1) for v, val in zip(xvars, xvals)]
        slots += [(self.index[v], v, w_prime[i], i)
                  for i, v in enumerate(w_set)]
        slots += [(self.index[v], v, self.actual[v], n_w + j)
                  for j, v in enumerate(z_free)]
        slots.sort()
        picked = [(v, val) for _, v, val, _ in slots]
        groups = [g for _, _, _, g in slots]

        if legacy:
            always = (1 << n_w) - 1
            option_ids = [g for g in groups if g >= n_w]
        else:
            always = 0
            option_ids = [g for g in groups if g >= 0]
        for k in range(len(option_ids) + 1):
            for combo in itertools.combinations(option_ids, k):
                mask = always
                for g in combo:
                    mask |= 1 << g
                key = tuple(pair for pair, g in zip(picked, groups)
                            if g < 0 or mask >> g & 1)
                holds, allowed = self.probe_key(key)
                if allowed and not holds:
                    return False
        return True

    def _slots(self, xvars: tuple[str, ...],
               w_set: tuple[str, ...]) -> list[tuple[str, str, int]]:
        """Declaration-ordered (var, group, position) template for scenarios
        that clamp every cause variable and every contingency variable."""
        slots = [(self.index[v], v, "x", i) for i, v in enumerate(xvars)]
        slots += [(self.index[v], v, "w", i) for i, v in enumerate(w_set)]
        slots.sort()
        return [(v, g, i) for _, v, g, i in slots]

    @staticmethod
    def _fill(slots, x_vals, w_vals) -> tuple[tuple[str, Value], ...]:
        return tuple((v, x_vals[i] if g == "x" else w_vals[i])
                     for v, g, i in slots)

    def _c_holds(self, slots, xvals: tuple[Value, ...],
                 w_set: tuple[str, ...]) -> bool:
        """Clause (c): X=x forces the effect no matter how W is set."""
        for w_vals in itertools.product(*(self.domain(w) for w in w_set)):
            holds, allowed = self.probe_key(self._fill(slots, xvals, w_vals))
            if allowed and not holds:
                return False
        return True

    def witnesses(self, cause: CandidateCause, variant: DefinitionVariant,
                  stats: SearchStats, *,
                  defeat: Formula | None = None,
                  fixed_w: tuple[str, ...] | None = None,
                  x_override: tuple[Value, ...] | None = None,
                  ) -> Iterator[Witness]:
        """Yield AC2 witnesses in canonical order.

        ``defeat`` replaces the effect's negation as the goal of clause (a)
        (used for contrastive queries).  ``fixed_w`` restricts the search to
        one contingency set.  ``x_override`` substitutes the cause values used
        on the (b)/(c) side, which implements the weak antecedent contrast.
        """
        xvars = cause.vars
        xvals = x_override if x_override is not None else cause.values
        for x in xvars:
            if x not in self.index:
                raise UnknownVariable(f"{x!r} is not an endogenous variable")
        for e in cause.events:
            if e.value not in self.model.domain_of(e.var):
                raise OutOfRangeValue(
                    f"cause value {e.value!r} outside domain of {e.var}")

        free = tuple(v for v in self.endo if v not in set(xvars))
        legacy = variant is DefinitionVariant.LEGACY

        if fixed_w is None:
            w_choices: Iterator[tuple[str, ...]] = itertools.chain.from_iterable(
                itertools.combinations(free, k) for k in range(len(free) + 1))
        else:
            w_choices = iter([fixed_w])

        if variant is DefinitionVariant.STRONG:
            deviations = [tuple(v for v in self.domain(x) if v != val)
                          for x, val in zip(xvars, cause.values)]
            if any(not d for d in deviations):
                return  # a single-valued cause variable admits no deviation
        for w_set in w_choices:
            stats.partitions_examined += 1
            w_in = set(w_set)
            z_free = tuple(v for v in free if v not in w_in)
            z_vars = tuple(v for v in self.endo if v not in w_in)
            z_star = tuple((v, self.actual[v]) for v in z_vars)
            slots = self._slots(xvars, w_set)

            if variant is DefinitionVariant.STRONG:
                for w_prime in itertools.product(*(self.domain(w) for w in w_set)):
                    stats.settings_examined += 1
                    first_dev = self._all_deviations_defeat(
                        slots, deviations, w_prime, defeat)
                    if first_dev is None:
                        continue
                    if not self._b_holds(xvars, xvals, w_set, w_prime,
                                         z_free, legacy=False):
                        continue
                    if not self._c_holds(slots, xvals, w_set):
                        continue
                    yield Witness(w_set, first_dev, w_prime, z_star)
            else:
                for x_prime in itertools.product(
                        *(self.domain(x) for x in xvars)):
                    if x_prime == tuple(cause.values):
                        # Clamping X at its actual value can never satisfy
                        # both (a) and (b); skipping is verdict-preserving.
                        continue
                    for w_prime in itertools.product(
                            *(self.domain(w) for w in w_set)):
                        stats.settings_examined += 1
                        key = self._fill(slots, x_prime, w_prime)
                        if self._defeats(key, defeat) and self._b_holds(
                                xvars, xvals, w_set, w_prime, z_free, legacy):
                            yield Witness(w_set, x_prime, w_prime, z_star)

    def _defeats(self, key: tuple[tuple[str, Value], ...],
                 defeat: Formula | None) -> bool | None:
        """Clause (a) for one scenario: whether it defeats the effect, or
        reaches ``defeat`` when one is given; None if it is not allowable."""
        holds, allowed = self.probe_key(key)
        if not allowed:
            return None
        if defeat is None:
            return not holds
        return eval_event(solve(self.model, self.context, dict(key)), defeat)

    def _all_deviations_defeat(self, slots, deviations, w_prime,
                               defeat) -> tuple[Value, ...] | None:
        """Strong clause (a): every full deviation of the cause tuple defeats
        the effect under the contingency; returns the first allowable
        deviation as the recorded x' (None if any fails or none is allowable).
        """
        first: tuple[Value, ...] | None = None
        for x_dev in itertools.product(*deviations):
            defeated = self._defeats(self._fill(slots, x_dev, w_prime), defeat)
            if defeated is False:
                return None
            if defeated and first is None:
                first = x_dev
        return first

    def first_witness(self, cause, variant, stats, **kw) -> Witness | None:
        return next(self.witnesses(cause, variant, stats, **kw), None)

    def ac1(self, cause: CandidateCause) -> bool:
        return (all(self.actual[e.var] == e.value for e in cause.events)
                and eval_event(self.actual, self.effect))


def _normalise(query: CauseQuery) -> tuple[_Engine, DefinitionVariant]:
    engine = _Engine(query.model, query.context, query.effect,
                     max_vars=query.max_vars)
    return engine, query.variant


def _self_entailed(engine: _Engine, cause: CandidateCause) -> bool:
    ranges = {v: engine.domain(v) for v in engine.endo}
    return entails(ranges, cause.as_formula(), engine.effect)


def is_weak_cause(query: CauseQuery) -> CauseVerdict:
    """AC1 + AC2 under the query's variant; AC3 is not evaluated."""
    engine, variant = _normalise(query)
    return _weak_verdict(engine, query.cause, variant, query.exclude_self)


def _weak_verdict(engine, cause, variant, exclude_self=False,
                  defeat=None) -> CauseVerdict:
    stats = SearchStats()
    ac1 = engine.ac1(cause)
    witness = engine.first_witness(cause, variant, stats, defeat=defeat)
    ac2 = witness is not None
    ac2c = ac2 if variant is DefinitionVariant.STRONG else None
    self_entailed = exclude_self and _self_entailed(engine, cause)
    return CauseVerdict(ac1=ac1, ac2=ac2, witness=witness, ac3=None,
                        ac3_violator=None, ac2c=ac2c,
                        self_entailed=self_entailed,
                        overall=ac1 and ac2 and not self_entailed,
                        variant=variant, stats=stats)


def _minimality(engine, cause, variant, stats,
                defeat=None) -> tuple[bool, tuple[Prim, ...] | None]:
    """AC3: no strict nonempty sub-conjunction passes AC1 + AC2.

    AC1 for a sub-conjunction follows from the full cause's AC1, so only the
    AC2 search runs here.  The empty conjunction can never satisfy both (a)
    and (b) and is skipped.
    """
    events = cause.events
    for k in range(1, len(events)):
        for sub in itertools.combinations(events, k):
            witness = engine.first_witness(CandidateCause(sub), variant, stats,
                                           defeat=defeat)
            if witness is not None:
                return False, sub
    return True, None


def is_actual_cause(query: CauseQuery) -> CauseVerdict:
    """AC1 + AC2 + AC3 under the query's variant."""
    engine, variant = _normalise(query)
    return _actual_verdict(engine, query.cause, variant, query.exclude_self)


def _actual_verdict(engine, cause, variant, exclude_self=False,
                    defeat=None) -> CauseVerdict:
    """AC1 + AC2 + AC3; ``defeat`` replaces the effect's negation as the goal
    of clause (a) throughout, as in the consequent contrast."""
    weak = _weak_verdict(engine, cause, variant, exclude_self, defeat)
    if not (weak.ac1 and weak.ac2):
        return weak
    ac3, violator = _minimality(engine, cause, variant, weak.stats, defeat)
    return replace(weak, ac3=ac3, ac3_violator=violator,
                   overall=weak.overall and ac3)


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


def enumerate_witnesses(query: CauseQuery) -> list[Witness]:
    """All AC2 witnesses in canonical order; empty iff AC2 fails."""
    engine, variant = _normalise(query)
    stats = SearchStats()
    return list(engine.witnesses(query.cause, variant, stats))


def enumerate_causes(model: CausalModel | ExtendedCausalModel,
                     context: Mapping[str, Value], effect: Formula, *,
                     variant: DefinitionVariant = DefinitionVariant.UPDATED,
                     max_conjuncts: int = 1, exclude_self: bool = False,
                     max_vars: int = DEFAULT_MAX_VARS) -> list[CandidateCause]:
    """All cause conjunctions of bounded width whose verdict is positive.

    Candidate conjuncts take their actual values (anything else fails AC1).
    Canonical order: conjunct count, then variable declaration order.
    """
    engine = _Engine(model, context, effect, max_vars=max_vars)
    if not eval_event(engine.actual, effect):
        raise EffectNotActual(
            "the effect does not hold in the actual world (AC1 can never hold)")
    found: list[CandidateCause] = []
    width = min(max_conjuncts, len(engine.endo))
    for k in range(1, width + 1):
        for combo in itertools.combinations(engine.endo, k):
            cause = CandidateCause(tuple(Prim(v, engine.actual[v])
                                         for v in combo))
            if exclude_self and _self_entailed(engine, cause):
                continue
            verdict = _actual_verdict(engine, cause, variant)
            if verdict.overall:
                found.append(cause)
    return found


def active_processes(model: CausalModel | ExtendedCausalModel,
                     context: Mapping[str, Value], cause: CandidateCause,
                     effect: Formula, *,
                     variant: DefinitionVariant = DefinitionVariant.UPDATED,
                     max_vars: int = DEFAULT_MAX_VARS) -> list[tuple[str, ...]]:
    """Inclusion-minimal process sets Z whose complement admits a witness.

    Raises NoCause when no split works at all (AC2 fails outright).
    """
    engine = _Engine(model, context, effect, max_vars=max_vars)
    stats = SearchStats()
    if not engine.ac1(cause):
        raise NoCause(f"{cause} or the effect fails to hold in the actual world")
    free = tuple(v for v in engine.endo if v not in set(cause.vars))
    admitting: list[tuple[str, ...]] = []
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            z_set = tuple(v for v in engine.endo
                          if v in set(cause.vars) or v in set(extra))
            w_set = tuple(v for v in free if v not in set(extra))
            if engine.first_witness(cause, variant, stats,
                                    fixed_w=w_set) is not None:
                admitting.append(z_set)
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
    engine, variant = _normalise(query)
    cause = query.cause
    if mode == "consequent":
        if effect_alternative is None:
            raise NotContrastive("consequent contrast needs an alternative outcome")
        validate_event_formula(engine.model, effect_alternative)
        ranges = {v: engine.domain(v) for v in engine.endo}
        if satisfiable_together(ranges, query.effect, effect_alternative):
            raise NotContrastive(
                "the contrasted outcomes are jointly satisfiable")
        return _actual_verdict(engine, cause, variant,
                               defeat=effect_alternative)

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

    base = _actual_verdict(engine, cause, variant, query.exclude_self)
    if not base.overall:
        return base
    if mode == "antecedent_strong":
        holds, _ = engine.probe({xvar: value_alternative})
        extra_ok = not holds
    else:
        stats = SearchStats()
        extra_ok = engine.first_witness(
            cause, variant, stats,
            x_override=(value_alternative,)) is not None
        base = replace(base, stats=base.stats.merged(stats))
    return replace(base, overall=base.overall and extra_ok)


def classify_contributory(query: CauseQuery) -> str:
    """Split weak causes by whether some witness keeps the contingency set at
    its solved actual values.

    Returns ``"actual_with_actual_contingency"`` when such a witness exists,
    ``"contributory_only"`` when the candidate is a weak cause but every
    witness bends some contingency variable away from its actual value, and
    ``"not_a_cause"`` otherwise.
    """
    engine, variant = _normalise(query)
    stats = SearchStats()
    if not engine.ac1(query.cause):
        return "not_a_cause"
    any_witness = False
    for witness in engine.witnesses(query.cause, variant, stats):
        any_witness = True
        if all(value == engine.actual[var]
               for var, value in zip(witness.w_set, witness.w_prime)):
            return "actual_with_actual_contingency"
    return "contributory_only" if any_witness else "not_a_cause"
