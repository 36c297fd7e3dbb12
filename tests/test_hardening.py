"""Deeper cross-checks beyond the acceptance gate: randomized audits of the
legacy and extended modes against the brute-force oracle, plus coverage of
the less-travelled operators."""

from __future__ import annotations

import itertools
import random

import pytest

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    ExtendedCausalModel,
    Mechanism,
    Signature,
    Domain,
    Or,
    build_model,
    cause_of,
    conj,
    contrastive_cause,
    enumerate_causes,
    enumerate_witnesses,
    eval_event,
    is_actual_cause,
    is_weak_cause,
    load_model,
    p,
    solve,
    submodel,
)
from actualcause.dsl import parse_query
from actualcause.errors import DisallowedActualWorld, InvalidBound
from actualcause.oracle import actual_cause_bruteforce, weak_cause_bruteforce
from actualcause.queries import run_query
from conftest import mixed_domain_model, random_recursive_model


class TestLegacyVariantAudit:
    def test_legacy_reading_matches_its_oracle(self):
        differs = 0
        for seed in range(80):
            model = random_recursive_model(seed)
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                for x in model.endogenous:
                    for y in model.endogenous:
                        events = (p(x, actual[x]),)
                        effect = p(y, actual[y])
                        fast = is_weak_cause(
                            CauseQuery(model, context, cause_of(*events),
                                       effect,
                                       variant=DefinitionVariant.LEGACY))
                        slow = weak_cause_bruteforce(model, context, events,
                                                     effect, legacy=True)
                        assert (fast.ac1 and fast.ac2) == slow
                        # the permissive reading can only add causes
                        if slow and not weak_cause_bruteforce(
                                model, context, events, effect):
                            differs += 1
        assert differs > 0  # the family does exercise the difference


class TestMixedDomainAudit:
    def test_actual_causes_and_witnesses_match_the_oracle(self):
        checked = positive = three_valued = 0
        for seed in range(15):
            model = mixed_domain_model(seed)
            endo = model.endogenous
            three_valued += sum(len(model.domain_of(v)) == 3 for v in endo)
            causes = [c for k in (1, 2) for c in itertools.combinations(endo, k)]
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                for xs, y in itertools.product(causes, endo):
                    events = tuple(p(x, actual[x]) for x in xs)
                    effect = p(y, actual[y])
                    for variant in (DefinitionVariant.UPDATED,
                                    DefinitionVariant.LEGACY):
                        query = CauseQuery(model, context, cause_of(*events),
                                           effect, variant=variant)
                        legacy = variant is DefinitionVariant.LEGACY
                        verdict = is_actual_cause(query)
                        assert verdict.overall == actual_cause_bruteforce(
                            model, context, events, effect, legacy=legacy)
                        assert bool(enumerate_witnesses(query)) == (
                            verdict.ac1 and verdict.ac2)
                        checked += 1
                        positive += verdict.overall
        assert checked > 1000 and positive > 50 and three_valued > 10


class TestExtendedModeAudit:
    def test_random_restrictions_match_the_oracle(self):
        checked = 0
        for seed in range(60):
            model = random_recursive_model(seed)
            rng = random.Random(7_000 + seed)
            endo = model.endogenous
            settings = list(itertools.product(
                *(model.domain_of(v).values for v in endo)))
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                actual_tuple = tuple(actual[v] for v in endo)
                allowed = frozenset(
                    s for s in settings
                    if s == actual_tuple or rng.random() < 0.7)
                extended = ExtendedCausalModel(model, allowed)
                allow_fn = (lambda pool: lambda a: tuple(
                    a[v] for v in endo) in pool)(allowed)
                for x in endo:
                    for y in endo:
                        events = (p(x, actual[x]),)
                        effect = p(y, actual[y])
                        fast = is_weak_cause(
                            CauseQuery(extended, context, cause_of(*events),
                                       effect))
                        slow = weak_cause_bruteforce(model, context, events,
                                                     effect, allow=allow_fn)
                        assert (fast.ac1 and fast.ac2) == slow
                        checked += 1
        assert checked > 400

    def test_allow_formulas_beyond_the_effects_ancestors(self):
        """Allow formulas over the effect's descendants and siblings, which
        widen the probe kernel's cone past the effect's ancestors, and effects
        over two variables, under both AC2(b) readings."""
        checked = changed = 0
        for seed in range(30):
            model = mixed_domain_model(seed)
            endo = model.endogenous
            rng = random.Random(9_000 + seed)
            ancestors = {v: {v} for v in endo}
            for v in endo:  # declaration order is topological here
                for d in model.parents[v]:
                    ancestors[v] |= ancestors.get(d, set())
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                effects = [(y,) for y in endo] + list(
                    itertools.combinations(endo, 2))
                for ys in effects:
                    outside = [v for v in endo
                               if not any(v in ancestors[y] for y in ys)]
                    if not outside:
                        continue
                    a, b = rng.choice(outside), rng.choice(outside)
                    formula = Or((p(a, actual[a]), p(b, rng.choice(
                        model.domain_of(b).values))))
                    extended = ExtendedCausalModel(model, formula)
                    effect = conj(*(p(y, actual[y]) for y in ys))
                    for x in endo:
                        events = (p(x, actual[x]),)
                        for legacy in (False, True):
                            variant = (DefinitionVariant.LEGACY if legacy
                                       else DefinitionVariant.UPDATED)
                            fast = is_actual_cause(CauseQuery(
                                extended, context, cause_of(*events), effect,
                                variant=variant)).overall
                            assert fast == actual_cause_bruteforce(
                                model, context, events, effect, legacy=legacy,
                                allow=lambda w: eval_event(w, formula))
                            changed += fast != is_actual_cause(CauseQuery(
                                model, context, cause_of(*events), effect,
                                variant=variant)).overall
                            checked += 1
        assert checked > 1000 and changed > 20


class TestStrongEnumeration:
    def test_three_valued_arson_enumerates_the_pair(self, corpus):
        loaded = corpus["arson_three_valued"].loaded
        causes = enumerate_causes(loaded.model, loaded.context("u11"),
                                  p("FB", 1),
                                  variant=DefinitionVariant.STRONG,
                                  max_conjuncts=2, exclude_self=True)
        assert [str(c) for c in causes] == ["ML1=1 & ML2=1"]


class TestExpressionOperators:
    TEXT = """
    model arithmetic {
      exo UA : {0, 1, 2}
      exo UB : {0, 1, 2}
      var A : {0, 1, 2}
      var B : {0, 1, 2}
      var LO : {0, 1, 2}
      var HI : {0, 1, 2}
      var GAP : {0, 1, 2}
      var BIG : {0, 1}
      eq A = UA
      eq B = UB
      eq LO = min(A, B)
      eq HI = max(A, B)
      eq GAP = max(HI - LO, LO - HI)
      eq BIG = if GAP = 2 then 1 else 0
      context wide { UA = 0, UB = 2 }
      context even { UA = 1, UB = 1 }
    }
    """

    def test_min_max_difference_and_conditional(self):
        loaded = load_model(self.TEXT)
        wide = solve(loaded.model, loaded.context("wide"))
        assert (wide["LO"], wide["HI"], wide["GAP"], wide["BIG"]) == (0, 2, 2, 1)
        even = solve(loaded.model, loaded.context("even"))
        assert (even["LO"], even["HI"], even["GAP"], even["BIG"]) == (1, 1, 0, 0)

    def test_round_trips(self):
        from actualcause import parse_model, serialize_model
        doc = parse_model(self.TEXT)
        assert parse_model(serialize_model(doc)) == doc


class TestCallableMechanisms:
    def test_submodel_of_unverified_rule_stays_consistent(self):
        names = tuple(f"B{i}" for i in range(21))
        ranges = {n: Domain((0, 1)) for n in names}
        ranges.update({"X": Domain((0, 1)), "Y": Domain((0, 1))})
        sig = Signature(names, ("X", "Y"), ranges)
        model = build_model(sig, [
            Mechanism.from_function("X", names,
                                    lambda env: max(env.values())),
            Mechanism.from_function("Y", ("X",) + names[:2],
                                    lambda env: min(env.values())),
        ])
        assert model.unverified_totality == ("X",)
        context = {n: 0 for n in names}
        context["B3"] = 1
        sub = submodel(model, {"X": 0})
        assert solve(sub, context)["Y"] == solve(model, context,
                                                 {"X": 0})["Y"] == 0


class TestQueryRunnerKinds:
    def test_witness_and_process_queries(self, corpus):
        loaded = corpus["rock_refined"].loaded
        outcome = run_query(loaded, parse_query(
            "witnesses for ST=1 of BS=1 context both", loaded))
        assert outcome.verdict and outcome.witnesses
        outcome = run_query(loaded, parse_query(
            "process for ST=1 of BS=1 context both", loaded))
        assert outcome.processes == [("ST", "SH", "BS")]

    def test_causes_query_with_width(self, corpus):
        loaded = corpus["voting_machine"].loaded
        outcome = run_query(loaded, parse_query(
            "causes of P=1 context both exclude_self max_conjuncts 2", loaded))
        assert [str(c) for c in outcome.causes] == ["V1=1", "V2=1", "M=2"]

    def test_causes_query_with_width_zero_is_refused(self, corpus):
        loaded = corpus["rock_refined"].loaded
        doc = parse_query("causes of BS=1 context both max_conjuncts 0", loaded)
        with pytest.raises(InvalidBound):
            run_query(loaded, doc)

    def test_contrast_rather_weak_query(self, corpus):
        loaded = corpus["merlin_coarse"].loaded
        outcome = run_query(loaded, parse_query(
            "contrast cause Mor=2 of F=1 rather 1 weak context spells",
            loaded))
        assert outcome.verdict
        outcome = run_query(loaded, parse_query(
            "contrast cause Mor=2 of F=1 rather 1 context spells", loaded))
        assert not outcome.verdict

    def test_contrast_keeps_exclude_self(self, corpus):
        loaded = corpus["rock_refined"].loaded
        text = "contrast cause BS=1 of BS=1 rather 0 context both"
        assert run_query(loaded, parse_query(text, loaded)).verdict
        outcome = run_query(loaded, parse_query(text + " exclude_self",
                                                loaded))
        assert outcome.cause_verdict.self_entailed and not outcome.verdict
        query = CauseQuery(loaded.model, loaded.context("both"),
                           cause_of(p("BS", 1)), p("BS", 1), exclude_self=True)
        assert not contrastive_cause(query, "consequent",
                                     effect_alternative=p("BS", 0)).overall

    def test_witness_records_the_process_side_actuals(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        outcome = run_query(loaded, parse_query(
            "witnesses for ML1=1 of FB=1 context u11", loaded))
        witness = outcome.witnesses[0]
        actual = solve(loaded.model, loaded.context("u11"))
        assert dict(witness.z_star) == {v: actual[v]
                                        for v in witness.z_vars()}


class TestRegistryCoverage:
    def test_every_example_has_golden_rows(self, corpus):
        from actualcause.corpus import REGISTRY, expected_verdicts
        for key in REGISTRY:
            assert expected_verdicts(key), key


class TestExtendedValidation:
    def test_actual_world_must_be_allowable(self, corpus):
        loaded = corpus["plant_putin"].loaded
        model = loaded.model
        # forbid the actual world itself
        restricted = ExtendedCausalModel(model, p("PD", 0))
        with pytest.raises(DisallowedActualWorld):
            is_weak_cause(CauseQuery(restricted, loaded.context("vacation"),
                                     cause_of(p("BW", 0)), p("PD", 1)))

    def test_oracle_refuses_a_disallowed_actual_world_as_the_engine_does(
            self, corpus):
        loaded = corpus["plant_putin"].loaded
        with pytest.raises(DisallowedActualWorld):
            weak_cause_bruteforce(loaded.model, loaded.context("vacation"),
                                  (p("BW", 0),), p("PD", 1),
                                  allow=lambda world: world["PD"] == 0)
