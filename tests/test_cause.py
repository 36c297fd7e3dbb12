from __future__ import annotations

import itertools
import random

import pytest

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Not,
    Or,
    Signature,
    active_processes,
    build_model,
    cause_of,
    classify_contributory,
    conj,
    contrastive_cause,
    descendants,
    disj,
    enumerate_causes,
    enumerate_witnesses,
    eval_event,
    is_actual_cause,
    is_strong_cause,
    is_weak_cause,
    p,
    solve,
)
from actualcause.cause import SearchStats, _Engine
from actualcause.dsl import parse_query
from actualcause.errors import (
    DisallowedActualWorld,
    EffectNotActual,
    MissingMechanism,
    NoCause,
    NotContrastive,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UnknownVariable,
)
from actualcause.oracle import actual_cause_bruteforce, weak_cause_bruteforce
from conftest import mixed_domain_model, random_recursive_model


def ctx(corpus, key, name):
    loaded = corpus[key].loaded
    return loaded.model, loaded.context(name)


class TestWeakCause:
    def test_first_witness_on_disjunctive_arson(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        verdict = is_weak_cause(CauseQuery(model, u, cause_of(p("ML1", 1)),
                                           p("FB", 1)))
        assert verdict.overall
        assert verdict.witness.w_set == ("ML2",)
        assert verdict.witness.w_prime == (0,)
        assert verdict.witness.x_prime == (0,)

    def test_preempted_thrower_has_no_witness(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        verdict = is_weak_cause(CauseQuery(model, u, cause_of(p("BT", 1)),
                                           p("BS", 1)))
        assert verdict.ac1 and not verdict.ac2
        assert enumerate_witnesses(CauseQuery(model, u, cause_of(p("BT", 1)),
                                              p("BS", 1))) == []

    def test_prisoner_split_between_variants(self, corpus):
        model, u = ctx(corpus, "prisoner", "base")
        query = CauseQuery(model, u, cause_of(p("A", 1)), p("D", 1))
        assert not is_weak_cause(query).overall
        legacy = CauseQuery(model, u, cause_of(p("A", 1)), p("D", 1),
                            variant=DefinitionVariant.LEGACY)
        verdict = is_weak_cause(legacy)
        assert verdict.overall
        assert verdict.witness.w_set == ("B", "C")
        assert verdict.witness.w_prime == (1, 0)

    def test_variable_cap(self, corpus):
        model, u = ctx(corpus, "noise_bottle", "noisy")
        query = CauseQuery(model, u, cause_of(p("N", 1)), p("BS3", 1),
                           max_vars=4)
        with pytest.raises(SearchSpaceTooLarge):
            is_weak_cause(query)


class TestActualCause:
    def test_self_cause_allowed_by_default(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("FB", 1)), p("FB", 1))
        assert is_actual_cause(query).overall

    def test_self_cause_opt_out(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("FB", 1)), p("FB", 1),
                           exclude_self=True)
        verdict = is_actual_cause(query)
        assert verdict.self_entailed and not verdict.overall

    def test_single_valued_variable_cannot_cause_itself(self):
        from actualcause import Domain, Mechanism, Signature, build_model
        sig = Signature(("U",), ("K", "X"),
                        {"U": Domain((0, 1)), "K": Domain((0,)),
                         "X": Domain((0, 1))})
        model = build_model(sig, [
            Mechanism.constant("K", 0),
            Mechanism.from_table("X", ("U",), {(0,): 0, (1,): 1}),
        ])
        # without a second value there is no deviation to test, so the
        # self-cause law's domain-size condition bites
        verdict = is_actual_cause(
            CauseQuery(model, {"U": 1}, cause_of(p("K", 0)), p("K", 0)))
        assert verdict.ac1 and not verdict.ac2 and not verdict.overall
        assert is_actual_cause(
            CauseQuery(model, {"U": 1}, cause_of(p("X", 1)),
                       p("X", 1))).overall

    def test_minimality_prunes_the_rain_storm_pair(self, corpus):
        model, u = ctx(corpus, "april_showers", "base")
        query = CauseQuery(model, u, cause_of(p("AS", 1), p("ES", "s11")),
                           p("F", 2))
        verdict = is_actual_cause(query)
        assert verdict.ac1 and verdict.ac2 and not verdict.ac3
        assert verdict.ac3_violator == (p("AS", 1),)
        assert not verdict.overall

    def test_no_transitivity_through_the_second_doctor(self, corpus):
        model, u = ctx(corpus, "doctor", "monday")
        still_alive = disj(p("BMC", 0), p("BMC", 1), p("BMC", 2))
        assert not is_actual_cause(
            CauseQuery(model, u, cause_of(p("MT", 1)), still_alive)).overall
        assert is_actual_cause(
            CauseQuery(model, u, cause_of(p("TT", 0)), still_alive)).overall


class TestStrongCause:
    def test_senior_order_forces_the_advance(self, corpus):
        model, u = ctx(corpus, "sergeant_simple", "both")
        assert is_strong_cause(CauseQuery(model, u, cause_of(p("M", 1)),
                                          p("A", 1))).overall
        assert not is_strong_cause(CauseQuery(model, u, cause_of(p("S", 1)),
                                              p("A", 1))).overall

    def test_conjunctive_arson_needs_empty_contingency_set(self, corpus):
        model, u = ctx(corpus, "arson_conjunctive", "u11")
        verdict = is_strong_cause(CauseQuery(model, u, cause_of(p("ML1", 1)),
                                             p("FB", 1)))
        assert verdict.overall
        assert verdict.witness.w_set == ()

    def test_three_valued_arson_demands_the_pair(self, corpus):
        model, u = ctx(corpus, "arson_three_valued", "u11")
        single = CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1))
        pair = CauseQuery(model, u, cause_of(p("ML1", 1), p("ML2", 1)),
                          p("FB", 1))
        assert not is_strong_cause(single).overall
        assert is_strong_cause(pair).overall

    def test_singleton_strong_causes_are_actual_causes(self):
        for seed in range(40):
            model = random_recursive_model(seed)
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                for x in model.endogenous:
                    for y in model.endogenous:
                        cause = cause_of(p(x, actual[x]))
                        effect = p(y, actual[y])
                        strong = is_strong_cause(
                            CauseQuery(model, context, cause, effect))
                        if strong.overall:
                            assert is_actual_cause(
                                CauseQuery(model, context, cause,
                                           effect)).overall


class TestWitnessEnumeration:
    def test_backup_escort_contingency_is_listed(self, corpus):
        model, u = ctx(corpus, "double_prevention_hillary", "base")
        witnesses = enumerate_witnesses(
            CauseQuery(model, u, cause_of(p("BPT", 1)), p("TD", 1)))
        entries = {(w.w_set, w.w_prime) for w in witnesses}
        assert (("HPT", "SPS"), (0, 1)) in entries

    def test_disjunctive_arson_contingency_is_listed(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        witnesses = enumerate_witnesses(
            CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1)))
        assert any(w.w_set == ("ML2",) and w.w_prime == (0,)
                   and w.x_prime == (0,) for w in witnesses)

    def test_order_is_deterministic(self, corpus):
        model, u = ctx(corpus, "double_prevention_hillary", "base")
        query = CauseQuery(model, u, cause_of(p("BPT", 1)), p("TD", 1))
        first = enumerate_witnesses(query)
        assert first == enumerate_witnesses(query)
        sizes = [len(w.w_set) for w in first]
        assert sizes == sorted(sizes)

    def test_shared_parts_keep_their_value_types(self):
        """Witness parts are shared across queries; 1 == True must not let
        one model's values stand in for another's."""
        def disjunction(values):
            ranges = {v: Domain(values) for v in ("U", "A", "B", "E")}
            return build_model(Signature(("U",), ("A", "B", "E"), ranges), [
                Mechanism.from_table("A", ("U",), {(x,): x for x in values}),
                Mechanism.from_table("B", ("U",), {(x,): x for x in values}),
                Mechanism.from_table("E", ("A", "B"), {
                    (a, b): max(a, b) for a in values for b in values}),
            ])
        for values in ((0, 1), (False, True)):
            one = values[1]
            witnesses = enumerate_witnesses(CauseQuery(
                disjunction(values), {"U": one}, cause_of(p("A", one)),
                p("E", one)))
            assert witnesses
            for w in witnesses:
                parts = w.x_prime + w.w_prime + tuple(x for _, x in w.z_star)
                assert {type(x) for x in parts} == {type(one)}


class TestCauseEnumeration:
    def test_rock_refined_singletons_match_brute_force(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        actual = solve(model, u)
        # oracle first: brute-force every singleton actual event
        expected = [f"{v}={actual[v]}" for v in model.endogenous
                    if v != "BS" and actual_cause_bruteforce(
                        model, u, (p(v, actual[v]),), p("BS", 1))]
        assert expected == ["ST=1", "SH=1"]
        got = enumerate_causes(model, u, p("BS", 1), exclude_self=True)
        assert [str(c) for c in got] == expected

    def test_april_showers_singletons(self, corpus):
        model, u = ctx(corpus, "april_showers", "base")
        got = enumerate_causes(model, u, p("F", 2), exclude_self=True)
        assert [str(c) for c in got] == ["AS=1", "ES=s11"]

    def test_voting_machine_singletons_include_the_tally(self, corpus):
        model, u = ctx(corpus, "voting_machine", "both")
        actual = solve(model, u)
        oracle = [f"{v}={actual[v]}" for v in ("V1", "V2", "M")
                  if actual_cause_bruteforce(model, u, (p(v, actual[v]),),
                                             p("P", 1))]
        assert "M=2" in oracle
        got = enumerate_causes(model, u, p("P", 1), exclude_self=True)
        assert [str(c) for c in got] == oracle == ["V1=1", "V2=1", "M=2"]

    def test_doctor_causes_of_survival(self, corpus):
        model, u = ctx(corpus, "doctor", "monday")
        alive = disj(p("BMC", 0), p("BMC", 1), p("BMC", 2))
        names = [str(c) for c in enumerate_causes(model, u, alive)]
        assert "TT=0" in names
        assert "MT=1" not in names

    def test_effect_must_hold(self, corpus):
        model, u = ctx(corpus, "doctor", "monday")
        with pytest.raises(EffectNotActual):
            enumerate_causes(model, u, p("BMC", 3))

    def test_width_belongs_to_enumeration_not_to_a_query(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        with pytest.raises(TypeError):
            CauseQuery(model, u, cause_of(p("ST", 1)), p("BS", 1),
                       max_conjuncts=2)
        got = enumerate_causes(model, u, p("BS", 1), max_conjuncts=2)
        assert [str(c) for c in got] == ["ST=1", "SH=1", "BS=1"]


class TestActiveProcesses:
    def test_rock_refined_process_matches_partitionwise_brute_force(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        cause, effect = cause_of(p("ST", 1)), p("BS", 1)

        # oracle first: try every candidate process side by restricting the
        # brute-force witness hunt to its complement
        def admits(z_set):
            others = [v for v in model.endogenous if v not in z_set]
            a = solve(model, u)
            for x_prime in model.domain_of("ST"):
                for w_vals in itertools.product(
                        *(model.domain_of(w).values for w in others)):
                    iv = {"ST": x_prime}
                    iv.update(zip(others, w_vals))
                    if solve(model, u, iv)["BS"] == 1:
                        continue
                    ok = True
                    for r in range(len(others) + 1):
                        for w_sub in itertools.combinations(range(len(others)), r):
                            for s in range(len(z_set) + 1):
                                for z_sub in itertools.combinations(z_set, s):
                                    jv = {"ST": 1}
                                    for i in w_sub:
                                        jv[others[i]] = w_vals[i]
                                    for z in z_sub:
                                        jv[z] = a[z]
                                    if solve(model, u, jv)["BS"] != 1:
                                        ok = False
                    if ok:
                        return True
            return False

        free = [v for v in model.endogenous if v != "ST"]
        admitting = []
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                z_set = tuple(v for v in model.endogenous
                              if v == "ST" or v in extra)
                if admits(z_set):
                    admitting.append(z_set)
        minimal = [z for z in admitting
                   if not any(set(o) < set(z) for o in admitting)]
        assert minimal == [("ST", "SH", "BS")]

        assert active_processes(model, u, cause, effect) == minimal

    def test_disjunctive_arson_process(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        assert active_processes(model, u, cause_of(p("ML1", 1)),
                                p("FB", 1)) == [("ML1", "FB")]

    def test_processes_lie_on_cause_effect_paths(self, corpus):
        model, u = ctx(corpus, "double_prevention", "base")
        procs = active_processes(model, u, cause_of(p("BPT", 1)), p("TD", 1))
        on_path = {v for v in descendants(model, "BPT")
                   if "TD" in descendants(model, v)}
        for z in procs:
            assert set(z) <= on_path

    def test_no_cause_raises(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        with pytest.raises(NoCause):
            active_processes(model, u, cause_of(p("BT", 1)), p("BS", 1))


class TestContrastive:
    def test_rain_caused_june_rather_than_may(self, corpus):
        model, u = ctx(corpus, "april_showers", "base")
        query = CauseQuery(model, u, cause_of(p("AS", 1)), p("F", 2))
        verdict = contrastive_cause(query, "consequent",
                                    effect_alternative=p("F", 1))
        assert verdict.overall

    def test_consequent_contrast_checks_minimality(self, corpus):
        model, u = ctx(corpus, "arson_three_valued", "u11")
        both = cause_of(p("ML1", 1), p("ML2", 1))

        def contrast(cause, variant):
            query = CauseQuery(model, u, cause, p("FB", 1), variant=variant)
            return contrastive_cause(query, "consequent",
                                     effect_alternative=p("FB", 0))
        updated = contrast(both, DefinitionVariant.UPDATED)
        assert not updated.overall and updated.ac3 is False
        assert updated.ac3_violator == (p("ML1", 1),)
        strong = contrast(both, DefinitionVariant.STRONG)
        assert strong.overall and strong.ac2c is True
        single = contrast(cause_of(p("ML1", 1)), DefinitionVariant.STRONG)
        assert not single.overall and single.ac2c is False

    def test_consequent_contrast_minimality_on_rain(self, corpus):
        model, u = ctx(corpus, "april_showers", "base")
        query = CauseQuery(model, u, cause_of(p("AS", 1), p("ES", "s11")),
                           p("F", 2))
        verdict = contrastive_cause(query, "consequent",
                                    effect_alternative=p("F", 1))
        assert verdict.ac3 is False
        assert verdict.ac3_violator == (p("AS", 1),)

    def test_compatible_alternative_rejected(self, corpus):
        model, u = ctx(corpus, "april_showers", "base")
        query = CauseQuery(model, u, cause_of(p("AS", 1)), p("F", 2))
        with pytest.raises(NotContrastive):
            contrastive_cause(query, "consequent", effect_alternative=p("F", 2))

    def test_lit_match_rather_than_unlit(self, corpus):
        model, u = ctx(corpus, "arson_conjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1))
        # independent check of the counterfactual half via the solver
        assert solve(model, u, {"ML1": 0})["FB"] == 0
        verdict = contrastive_cause(query, "antecedent_strong",
                                    value_alternative=0)
        assert verdict.overall

    def test_antecedent_readings_split_on_casting_time(self, corpus):
        # an evening cast rather than a noon cast: the noon alternative would
        # still have turned the prince, so only the weak reading holds
        model, u = ctx(corpus, "merlin_coarse", "spells")
        query = CauseQuery(model, u, cause_of(p("Mor", 2)), p("F", 1))
        strong = contrastive_cause(query, "antecedent_strong",
                                   value_alternative=1)
        assert not strong.overall
        weak = contrastive_cause(query, "antecedent_weak",
                                 value_alternative=1)
        assert weak.overall

    def test_antecedent_contrast_fails_when_alternative_kills_the_effect(
            self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1))
        # under the only workable contingency (other match out), the unlit
        # alternative extinguishes the fire, so neither reading holds
        strong = contrastive_cause(query, "antecedent_strong",
                                   value_alternative=0)
        assert not strong.overall
        weak = contrastive_cause(query, "antecedent_weak",
                                 value_alternative=0)
        assert not weak.overall


class TestContributoryClassification:
    def test_conjunctive_arson_keeps_actual_contingency(self, corpus):
        model, u = ctx(corpus, "arson_conjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1))
        assert classify_contributory(query) == "actual_with_actual_contingency"

    def test_disjunctive_arson_is_contributory_only(self, corpus):
        model, u = ctx(corpus, "arson_disjunctive", "u11")
        query = CauseQuery(model, u, cause_of(p("ML1", 1)), p("FB", 1))
        # oracle: every witness bends the other match away from its value
        for w in enumerate_witnesses(query):
            assert dict(zip(w.w_set, w.w_prime)).get("ML2", 0) != 1
        assert classify_contributory(query) == "contributory_only"

    def test_preempted_thrower_is_no_cause(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        query = CauseQuery(model, u, cause_of(p("BT", 1)), p("BS", 1))
        assert classify_contributory(query) == "not_a_cause"


class TestExtendedModels:
    def test_degenerate_restriction_changes_nothing(self, corpus):
        model, u = ctx(corpus, "loanshark", "accident")
        every = frozenset(itertools.product(
            *(model.domain_of(v).values for v in model.endogenous)))
        plain = is_actual_cause(
            CauseQuery(model, u, cause_of(p("FS", 1)), p("FF", 1)))
        degenerate = is_actual_cause(
            CauseQuery(ExtendedCausalModel(model, every), u,
                       cause_of(p("FS", 1)), p("FF", 1)))
        assert plain.overall == degenerate.overall is True

    def test_disallowed_actual_world_is_a_validation_error(self, corpus):
        model, u = ctx(corpus, "loanshark", "accident")
        restricted = ExtendedCausalModel(model, p("FF", 0))
        with pytest.raises(DisallowedActualWorld):
            is_actual_cause(CauseQuery(restricted, u, cause_of(p("FS", 1)),
                                       p("FF", 1)))


class TestValidationBoundary:
    ENTRY_POINTS = {
        "weak": is_weak_cause,
        "actual": is_actual_cause,
        "strong": is_strong_cause,
        "witnesses": enumerate_witnesses,
        "classify": classify_contributory,
        "process": lambda q: active_processes(q.model, q.context, q.cause,
                                              q.effect),
        "consequent": lambda q: contrastive_cause(
            q, "consequent", effect_alternative=p("BS", 0)),
        "antecedent_strong": lambda q: contrastive_cause(
            q, "antecedent_strong", value_alternative=0),
        "antecedent_weak": lambda q: contrastive_cause(
            q, "antecedent_weak", value_alternative=0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("event, error", [
        (p("UST", 1), UnknownVariable),
        (p("Nope", 1), UnknownVariable),
        (p("ST", 7), OutOfRangeValue),
    ], ids=["exogenous", "undeclared", "out_of_range"])
    def test_cause_outside_the_model_is_a_typed_error(self, corpus, entry,
                                                       event, error):
        model, u = ctx(corpus, "rock_refined", "both")
        query = CauseQuery(model, u, cause_of(event), p("BS", 1))
        with pytest.raises(error):
            self.ENTRY_POINTS[entry](query)


class TestOracleAgreementSample:
    def test_small_family_spot_check(self):
        for seed in range(25):
            model = random_recursive_model(seed)
            for context in ({"U": 0}, {"U": 1}):
                actual = solve(model, context)
                for x in model.endogenous:
                    for y in model.endogenous:
                        events = (p(x, actual[x]),)
                        effect = p(y, actual[y])
                        fast = is_weak_cause(
                            CauseQuery(model, context, cause_of(*events),
                                       effect))
                        slow = weak_cause_bruteforce(model, context, events,
                                                     effect)
                        assert (fast.ac1 and fast.ac2) == slow


def probes_match_solve(model, context, effect, allowable=None, allow=None,
                       defeat=None) -> int:
    """Check probe() against public solve on every key that clamps at most
    two variables; returns the number of keys checked."""
    target = model if allowable is None else ExtendedCausalModel(model,
                                                                 allowable)
    engine = _Engine(target, context, effect, defeat=defeat)
    checked = 0
    for k in range(3):
        for names in itertools.combinations(model.endogenous, k):
            domains = [model.domain_of(v).values for v in names]
            for values in itertools.product(*domains):
                clamps = dict(zip(names, values))
                sol = solve(model, context, clamps)
                holds = eval_event(sol, effect)
                goal = not holds if defeat is None else eval_event(sol, defeat)
                expected = (holds, goal, allow is None or allow(sol))
                assert engine.probe(engine.key(clamps.items())) == expected
                checked += 1
    return checked


class TestProbeKernel:
    """probe() reads each scenario off a kernel compiled over the relevance
    cone; it must agree with public solve and eval_event everywhere."""

    def test_mixed_domain_models_in_four_forms(self):
        checked = 0
        for seed in range(12):
            model = mixed_domain_model(seed)
            endo = model.endogenous
            rng = random.Random(500 + seed)
            worlds = [solve(model, {"U": u}) for u in (0, 1)]
            settings = itertools.product(
                *(model.domain_of(v).values for v in endo))
            actuals = [tuple(w[v] for v in endo) for w in worlds]
            pool = frozenset(s for s in settings
                             if s in actuals or rng.random() < 0.6)
            # The allow formula reads the last variable, which lies outside
            # the cone of an effect on V1 unless V1's mechanism reads it.
            last = endo[-1]
            formula = Or(tuple(p(last, w[last]) for w in worlds)
                         + (p("V0", rng.choice(model.domain_of("V0").values)),))

            def in_pool(a, pool=pool):
                return tuple(a[v] for v in endo) in pool

            forms = [(None, None), (formula, lambda a: eval_event(a, formula)),
                     (pool, in_pool), (in_pool, in_pool)]
            for u, (allowable, allow) in itertools.product((0, 1), forms):
                actual = worlds[u]
                other = next(v for v in model.domain_of("V1").values
                             if v != actual["V1"])
                for effect, defeat in (
                        (p("V1", actual["V1"]), None),
                        (p("V1", actual["V1"]), p("V1", other)),
                        (conj(p("V0", actual["V0"]), p(last, actual[last])),
                         None)):
                    checked += probes_match_solve(model, {"U": u}, effect,
                                                  allowable, allow, defeat)
        assert checked > 5000

    def test_unverified_function_mechanism(self):
        names = tuple(f"B{i}" for i in range(21))
        ranges = {n: Domain((0, 1)) for n in names}
        ranges.update({v: Domain((0, 1)) for v in ("X", "Y", "Z")})
        model = build_model(Signature(names, ("X", "Y", "Z"), ranges), [
            Mechanism.from_function("X", names, lambda env: max(env.values())),
            Mechanism.from_function("Y", ("X", "B0"),
                                    lambda env: env["X"] ^ env["B0"]),
            Mechanism.from_table("Z", ("Y",), {(0,): 1, (1,): 0}),
        ])
        assert model.unverified_totality == ("X",)
        context = {n: int(n in ("B0", "B7")) for n in names}
        for effect in (p("Z", 1), p("Y", 0), p("X", 1)):
            assert probes_match_solve(model, context, effect) == 19

    def test_missing_row_in_the_cone_still_raises(self):
        ranges = {v: Domain((0, 1)) for v in ("U", "X", "Y", "S")}
        model = build_model(Signature(("U",), ("X", "Y", "S"), ranges), [
            Mechanism.from_table("X", ("U",), {(0,): 0, (1,): 1}),
            Mechanism.from_table("Y", ("X",), {(0,): 0}),
            Mechanism.from_table("S", ("X",), {(0,): 1}),
        ], verify=False)
        context = {"U": 0}
        with pytest.raises(MissingMechanism) as solved:
            solve(model, context, {"X": 1})
        engine = _Engine(model, context, p("Y", 0))
        with pytest.raises(MissingMechanism) as probed:
            engine.probe(engine.key([("X", 1)]))
        assert str(probed.value) == str(solved.value)
        # S lies outside the cone of Y, so its missing row is never read.
        engine = _Engine(model, context, p("Y", 0))
        assert engine.probe(engine.key([("X", 1), ("Y", 1)])) == (
            False, True, True)

    def test_hostile_names_and_values(self):
        """Names and values reach the kernel only as bound objects, never as
        source text, so neither keywords and generated names nor quotes,
        newlines, None and tuples change what a probe reports."""
        for name in ('a"b', "line\nbreak", "__import__"):
            with pytest.raises(UnknownVariable):
                Signature((name,), ("X",), {})
        u, a, b, c, d = "None", "s1", "F", "key", "lambda"
        odd = ("x'); raise SystemExit #", '"""\n', (1, "2"), None)
        ranges = {u: Domain((0, 1)), a: Domain(odd[:2]),
                  b: Domain(odd[2:]), c: Domain((None, "None")),
                  d: Domain(((), (None,)))}
        model = build_model(Signature((u,), (a, b, c, d), ranges), [
            Mechanism.from_table(a, (u,), {(0,): odd[0], (1,): odd[1]}),
            Mechanism.from_table(b, (a, u), {
                (x, y): odd[2 + ((x == odd[1]) ^ y)]
                for x in odd[:2] for y in (0, 1)}),
            Mechanism.from_function(c, (b,), lambda env: (
                None if env[b] is None else "None")),
            Mechanism.from_table(d, (c, a), {
                (x, y): (None,) if x is None and y == odd[0] else ()
                for x in (None, "None") for y in odd[:2]}),
        ], verify=False)
        checked = 0
        for context in ({u: 0}, {u: 1}):
            actual = solve(model, context)
            allowed = Or((p(c, actual[c]), p(d, ())))
            probe = _Engine(ExtendedCausalModel(model, allowed), context,
                            p(a, odd[0]), defeat=p(b, odd[2])).probe
            assert all(k is None or k is True
                       for k in probe.__code__.co_consts)
            for effect, defeat in ((p(d, actual[d]), None),
                                   (conj(p(b, actual[b]), p(a, actual[a])),
                                    p(c, "None")),
                                   (Not(p(c, None)), None)):
                checked += probes_match_solve(model, context, effect)
                checked += probes_match_solve(
                    model, context, effect, allowed,
                    lambda w: eval_event(w, allowed), defeat)
        assert checked == 12 * 33

    def test_deep_formulas_keep_the_verdict(self, corpus):
        """A 300-deep negation chain is too deep for one Python expression
        and a 500-part disjunction too long to nest; both stay flat."""
        loaded = corpus["rock_refined"].loaded
        chain = "!" * 300 + "(BS=1)"
        wide = " | ".join(["BH=1", "SH=1"] * 250)
        for cause, effect, expected in (("ST", chain, True),
                                        ("BT", chain, False),
                                        ("ST", wide, True),
                                        ("BT", wide, False)):
            doc = parse_query(f"check cause {cause}=1 of {effect} "
                              f"context both", loaded)
            query = CauseQuery(loaded.model, loaded.context("both"),
                               doc.cause, doc.effect)
            assert is_actual_cause(query).overall is expected

    def test_same_shape_models_share_code_but_not_tables(self):
        first, second = window_model(18, 6), window_model(19, 6)
        assert first.parents == second.parents
        assert any(first.mechanisms[v].table != second.mechanisms[v].table
                   for v in first.endogenous)
        probes = [_Engine(m, {"U": 1}, p("V5", 1)).probe
                  for m in (first, second)]
        assert probes[0].__code__ is probes[1].__code__
        for model in (first, second):
            assert probes_match_solve(model, {"U": 1}, p("V5", 1)) == 73


def window_model(seed: int, n: int):
    """Binary variables V0..; V0 reads U, every later variable reads one to
    three of the three variables before it (the benchmark's onpath family)."""
    rng = random.Random(seed)
    endo = tuple(f"V{i}" for i in range(n))
    mechanisms = []
    for i, var in enumerate(endo):
        pool = ["U"] if i == 0 else list(endo[max(0, i - 3):i])
        deps = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))),
                            key=pool.index))
        table = {key: rng.randint(0, 1)
                 for key in itertools.product((0, 1), repeat=len(deps))}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    ranges = {v: Domain((0, 1)) for v in ("U", *endo)}
    return build_model(Signature(("U",), endo, ranges), mechanisms)


class TestSearchCounters:
    """The clause (b) memo skips probes, never settings: the counters keep
    the values they had before it."""

    # (seed, cause variables) -> (overall, partitions, settings) per variant
    WINDOW = {
        (1, ("V1",)): {"updated": (False, 64, 729), "legacy": (False, 64, 729),
                       "strong": (False, 64, 729)},
        (1, ("V2",)): {"updated": (False, 64, 729), "legacy": (True, 10, 23),
                       "strong": (False, 64, 729)},
        (1, ("V1", "V2")): {"updated": (False, 32, 729),
                            "legacy": (False, 82, 803),
                            "strong": (False, 32, 243)},
        (3, ("V1",)): {"updated": (True, 3, 4), "legacy": (True, 3, 4),
                       "strong": (True, 3, 4)},
        (3, ("V1", "V2")): {"updated": (False, 4, 5), "legacy": (False, 4, 5),
                            "strong": (False, 4, 5)},
        (8, ("V2",)): {"updated": (False, 64, 729), "legacy": (False, 64, 729),
                       "strong": (False, 64, 729)},
        (8, ("V1", "V2")): {"updated": (False, 2, 3), "legacy": (False, 2, 3),
                            "strong": (False, 32, 243)},
    }

    def test_window_models(self):
        for (seed, xs), expected in self.WINDOW.items():
            model = window_model(seed, 7)
            actual = solve(model, {"U": 0})
            for variant, counts in expected.items():
                verdict = is_actual_cause(CauseQuery(
                    model, {"U": 0}, cause_of(*(p(x, actual[x]) for x in xs)),
                    p("V6", actual["V6"]), variant=DefinitionVariant(variant)))
                stats = verdict.stats
                assert (verdict.overall, stats.partitions_examined,
                        stats.settings_examined) == counts, (seed, xs, variant)

    @pytest.mark.parametrize("variant, cause, counts", [
        ("legacy", "BT", (False, 16, 81)), ("legacy", "SH", (True, 3, 4)),
        ("strong", "BT", (False, 16, 81)), ("strong", "SH", (True, 3, 4)),
    ])
    def test_rock_refined(self, corpus, variant, cause, counts):
        model, u = ctx(corpus, "rock_refined", "both")
        verdict = is_actual_cause(CauseQuery(
            model, u, cause_of(p(cause, 1)), p("BS", 1),
            variant=DefinitionVariant(variant)))
        stats = verdict.stats
        assert (verdict.overall, stats.partitions_examined,
                stats.settings_examined) == counts

    # Search order on multi-valued domains, in context U=0 with effect V3 at
    # its actual value.  mixed_domain_model(10): V0 binary, V1-V3 3-valued,
    # actual V0=0, V1=0, V2=0, V3=2.  mixed_domain_model(52): V0, V1 binary,
    # V2, V3 3-valued, actual V0=0, V1=0, V2=2, V3=2.  Listing the settings
    # of a contingency set in any other order than the product of its
    # domains in declaration order changes a list or a count below.
    # (seed, cause variables, variant) -> ((partitions, settings), witnesses)
    MIXED_WITNESSES = {
        (10, ("V1",), "updated"): ((8, 96), [
            "x'=1", "x'=2", "x'=1 V0=0", "x'=2 V0=0", "x'=1 V2=0",
            "x'=2 V2=0", "x'=1 V0=0,V2=0", "x'=2 V0=0,V2=0"]),
        (10, ("V1",), "legacy"): ((8, 96), [
            "x'=1", "x'=2", "x'=1 V0=0", "x'=2 V0=0", "x'=1 V2=0",
            "x'=2 V2=0", "x'=1 V0=0,V2=0", "x'=1 V0=1,V2=2",
            "x'=2 V0=0,V2=0", "x'=2 V0=1,V2=2"]),
        (10, ("V1",), "strong"): ((8, 48), ["x'=1", "x'=1 V0=0"]),
        (10, ("V0", "V1"), "updated"): ((4, 80), [
            "x'=0,1", "x'=0,2", "x'=1,1", "x'=1,2", "x'=0,1 V2=0",
            "x'=0,2 V2=0", "x'=1,0 V2=0", "x'=1,1 V2=0", "x'=1,2 V2=0"]),
        (10, ("V0", "V1"), "legacy"): ((4, 80), [
            "x'=0,1", "x'=0,2", "x'=1,1", "x'=1,2", "x'=0,1 V2=0",
            "x'=0,2 V2=0", "x'=1,0 V2=0", "x'=1,1 V2=0", "x'=1,2 V2=0"]),
        (10, ("V0", "V1"), "strong"): ((4, 16), ["x'=1,1"]),
        (52, ("V0",), "updated"): ((8, 48), ["x'=1 V1=0,V2=1"]),
        (52, ("V0",), "legacy"): ((8, 48), ["x'=1 V1=0,V2=1",
                                            "x'=1 V1=1,V2=0"]),
        (52, ("V0",), "strong"): ((8, 48), []),
        (52, ("V0", "V1"), "updated"): ((4, 48), ["x'=0,1 V2=1",
                                                  "x'=1,0 V2=1"]),
        (52, ("V0", "V1"), "legacy"): ((4, 48), ["x'=0,1 V2=1",
                                                 "x'=1,0 V2=1"]),
        (52, ("V0", "V1"), "strong"): ((4, 16), []),
    }

    # (seed, cause variables, variant) -> (process sets, partitions, settings)
    MIXED_PROCESSES = {
        (10, ("V1",), "updated"): ([("V1", "V3")], 8, 76),
        (10, ("V1",), "legacy"): ([("V1", "V3")], 8, 76),
        (10, ("V1",), "strong"): ([("V1", "V2", "V3")], 8, 47),
        (10, ("V0", "V1"), "updated"): ([("V0", "V1", "V3")], 4, 62),
        (10, ("V0", "V1"), "legacy"): ([("V0", "V1", "V3")], 4, 62),
        (10, ("V0", "V1"), "strong"): ([("V0", "V1", "V2", "V3")], 4, 16),
        (52, ("V0",), "updated"): ([("V0", "V3")], 8, 44),
        (52, ("V0",), "legacy"): ([("V0", "V3")], 8, 44),
        (52, ("V1",), "updated"): ([("V1", "V3")], 8, 43),
        (52, ("V1",), "legacy"): ([("V1", "V3")], 8, 43),
    }

    # (seed, cause variable, variant, alternative value) ->
    # (witness, overall, partitions, settings)
    MIXED_WEAK_CONTRAST = {
        (10, "V1", "updated", 1): ("x'=1", False, 9, 97),
        (10, "V1", "updated", 2): ("x'=1", False, 9, 97),
        (10, "V1", "legacy", 1): ("x'=1", True, 4, 13),
        (10, "V1", "legacy", 2): ("x'=1", True, 4, 9),
        (10, "V1", "strong", 1): ("x'=1", False, 9, 49),
        (10, "V1", "strong", 2): ("x'=1", False, 9, 49),
        (52, "V0", "updated", 1): ("x'=1 V1=0,V2=1", False, 13, 59),
        (52, "V0", "legacy", 1): ("x'=1 V1=0,V2=1", False, 13, 59),
    }

    @staticmethod
    def mixed_query(seed, xs, variant):
        model = mixed_domain_model(seed)
        actual = solve(model, {"U": 0})
        return CauseQuery(model, {"U": 0},
                          cause_of(*(p(x, actual[x]) for x in xs)),
                          p("V3", actual["V3"]),
                          variant=DefinitionVariant(variant))

    @staticmethod
    def witness_text(w):
        pins = ",".join(f"{v}={x}" for v, x in zip(w.w_set, w.w_prime))
        return "x'=" + ",".join(map(str, w.x_prime)) + (" " + pins if pins else "")

    def test_mixed_domain_witness_order(self):
        for case, (counts, expected) in self.MIXED_WITNESSES.items():
            stats = SearchStats()
            found = enumerate_witnesses(self.mixed_query(*case), stats=stats)
            assert [self.witness_text(w) for w in found] == expected, case
            assert (stats.partitions_examined,
                    stats.settings_examined) == counts, case

    def test_mixed_domain_processes(self):
        for case, expected in self.MIXED_PROCESSES.items():
            query, stats = self.mixed_query(*case), SearchStats()
            processes = active_processes(
                query.model, query.context, query.cause, query.effect,
                variant=query.variant, stats=stats)
            assert (processes, stats.partitions_examined,
                    stats.settings_examined) == expected, case

    def test_mixed_domain_weak_antecedent_contrast(self):
        for (seed, x, variant, alt), expected in (
                self.MIXED_WEAK_CONTRAST.items()):
            verdict = contrastive_cause(
                self.mixed_query(seed, (x,), variant), "antecedent_weak",
                value_alternative=alt)
            stats = verdict.stats
            assert (self.witness_text(verdict.witness), verdict.overall,
                    stats.partitions_examined,
                    stats.settings_examined) == expected, (seed, variant, alt)

    def test_enumerations_add_into_given_stats(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        query = CauseQuery(model, u, cause_of(p("ST", 1)), p("BS", 1))
        for run in (lambda s: enumerate_causes(model, u, p("BS", 1), stats=s),
                    lambda s: enumerate_witnesses(query, stats=s),
                    lambda s: active_processes(model, u, query.cause,
                                               query.effect, stats=s)):
            stats = SearchStats(partitions_examined=1)
            run(stats)
            assert stats.partitions_examined > 1
            assert stats.settings_examined > 0
