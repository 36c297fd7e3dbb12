from __future__ import annotations

import itertools

import pytest

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    ExtendedCausalModel,
    active_processes,
    cause_of,
    classify_contributory,
    contrastive_cause,
    descendants,
    disj,
    enumerate_causes,
    enumerate_witnesses,
    is_actual_cause,
    is_strong_cause,
    is_weak_cause,
    p,
    solve,
)
from actualcause.errors import (
    DisallowedActualWorld,
    EffectNotActual,
    NoCause,
    NotContrastive,
    SearchSpaceTooLarge,
)
from actualcause.oracle import actual_cause_bruteforce, weak_cause_bruteforce
from conftest import random_recursive_model


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
