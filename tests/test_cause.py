from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import weakref
from functools import partial

import pytest

import actualcause
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
from actualcause import cause as cause_module
from actualcause.cause import _FREE, SearchStats, Witness, _Engine, _verdict
from actualcause.corpus import (REGISTRY, all_golden_rows, example_text,
                                load_example)
from actualcause.dsl import load_model, parse_query
from actualcause.errors import (
    DisallowedActualWorld,
    EffectNotActual,
    InvalidBound,
    MissingMechanism,
    NoCause,
    NotContrastive,
    NotRecursive,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UnknownVariable,
    UnknownVariant,
)
from actualcause.formula import And, Basic, Prim
from actualcause.oracle import actual_cause_bruteforce, weak_cause_bruteforce
from actualcause.queries import run_query
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

    def test_variable_cap_below_one_is_refused(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        for cap in (0, -1):
            query = CauseQuery(model, u, cause_of(p("ST", 1)), p("BS", 1),
                               max_vars=cap)
            with pytest.raises(InvalidBound, match=f"max_vars {cap} is "):
                is_actual_cause(query)


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

    def test_first_allowable_deviation_in_conjunct_order(self):
        """Strong clause (a) records the first allowable full deviation in
        the order the cause's conjuncts are written, not in declaration
        order: with the deviation (V1=0, V0=0) forbidden, that is
        (V1=0, V0=2), where declaration order would give (V0=0, V1=2)."""
        three = Domain((0, 1, 2))
        ranges = {"U": Domain((0, 1)), "V0": three, "V1": three,
                  "V2": Domain((0, 1)), "V3": Domain((0, 1))}
        model = build_model(Signature(("U",), ("V0", "V1", "V2", "V3"),
                                      ranges), [
            Mechanism.from_table("V0", ("U",), {(0,): 1, (1,): 1}),
            Mechanism.from_table("V1", ("U",), {(0,): 1, (1,): 1}),
            Mechanism.from_table("V2", ("V0", "V1"), {
                row: int(row == (1, 1))
                for row in itertools.product(range(3), repeat=2)}),
            Mechanism.from_table("V3", ("V2",), {(0,): 0, (1,): 1})])
        allowed = ExtendedCausalModel(model, Not(conj(p("V1", 0), p("V0", 0))))
        query = CauseQuery(allowed, {"U": 0}, cause_of(p("V1", 1), p("V0", 1)),
                           p("V3", 1), variant=DefinitionVariant.STRONG)
        verdict = is_weak_cause(query)
        assert verdict.overall and verdict.ac2c is True
        assert verdict.witness.w_set == ()
        assert verdict.witness.x_prime == (0, 2)
        assert [w.x_prime for w in enumerate_witnesses(query)] == [(0, 2)]

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

    def test_width_below_one_is_refused(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        for width in (0, -1):
            with pytest.raises(InvalidBound, match="is below 1"):
                enumerate_causes(model, u, p("BS", 1), max_conjuncts=width)


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

    def test_one_scan_for_every_contingency_set(self, corpus, monkeypatch):
        """All 16 contingency sets beside ST come from one witness scan,
        with the counts of 16 scans each stopped at its first witness."""
        scans = []
        search = _Engine.witnesses

        def counted(*args, **kwargs):
            scans.append(kwargs)
            return search(*args, **kwargs)
        monkeypatch.setattr(_Engine, "witnesses", counted)
        model, u = ctx(corpus, "rock_refined", "both")
        stats = SearchStats()
        assert active_processes(model, u, cause_of(p("ST", 1)), p("BS", 1),
                                stats=stats) == [("ST", "SH", "BS")]
        assert scans == [{"first_per_set": True}]
        assert stats == SearchStats(16, 76)

    def test_window_model_of_ten_variables(self):
        model = window_model(0, 10)
        actual = solve(model, {"U": 0})
        stats = SearchStats()
        assert active_processes(model, {"U": 0}, cause_of(p("V5", actual["V5"])),
                                p("V9", actual["V9"]), stats=stats) == [
            ("V5", "V7", "V9")]
        assert stats == SearchStats(512, 17_624)


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

    @pytest.mark.parametrize("cause, mode, alternatives, message", [
        ((p("ST", 1),), "bogus", {}, "unknown contrast mode 'bogus'"),
        ((p("ST", 1),), "consequent", {}, "needs an alternative outcome"),
        ((p("ST", 1), p("BT", 1)), "antecedent_weak",
         {"value_alternative": 0}, "needs a single-conjunct cause"),
        ((p("ST", 1),), "antecedent_strong", {}, "needs an alternative value"),
        ((p("ST", 1),), "antecedent_weak", {"value_alternative": 1},
         "must differ from the actual one"),
    ], ids=["mode", "outcome", "conjuncts", "value", "same_value"])
    def test_contrast_is_refused_before_the_model_is_read(
            self, cause, mode, alternatives, message):
        """A contrast that no model can make sense of is refused first: in a
        context that the model rejects, and without making a plan."""
        loaded = load_example("rock_refined").loaded
        for context in ({"UST": 9, "UBT": 1}, loaded.context("both")):
            query = CauseQuery(loaded.model, context, cause_of(*cause),
                               p("BS", 1))
            with pytest.raises(NotContrastive, match=message):
                contrastive_cause(query, mode, **alternatives)
        assert len(loaded.model.plans) == 0

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

    def test_cause_failing_ac1_is_no_cause(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        query = CauseQuery(model, u, cause_of(p("BT", 0)), p("BS", 1))
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
    def test_cause_outside_the_model_is_a_typed_error(self, entry, event,
                                                       error):
        """The cause is checked before any plan is built or world solved,
        so its error comes first even in a context that the model rejects,
        and a refused query leaves no plan."""
        loaded = load_example("rock_refined").loaded
        for u in ({"UST": 9, "UBT": 1}, loaded.context("both")):
            query = CauseQuery(loaded.model, u, cause_of(event), p("BS", 1))
            with pytest.raises(error):
                self.ENTRY_POINTS[entry](query)
        assert len(loaded.model.plans) == 0

    @pytest.mark.parametrize("events, message", [
        ((), "a candidate cause needs at least one conjunct"),
        ((p("ST", 1), p("ST", 0)), "cause repeats a variable: ['ST', 'ST']"),
    ], ids=["empty", "repeated"])
    def test_malformed_cause_is_a_typed_error(self, events, message):
        with pytest.raises(UnknownVariable) as err:
            cause_of(*events)
        assert str(err.value) == message

    @pytest.mark.parametrize("mode", ["antecedent_strong", "antecedent_weak"])
    def test_alternative_value_outside_the_domain_is_a_typed_error(
            self, mode):
        loaded = load_example("rock_refined").loaded
        for u in ({"UST": 9, "UBT": 1}, loaded.context("both")):
            query = CauseQuery(loaded.model, u, cause_of(p("ST", 1)),
                               p("BS", 1))
            with pytest.raises(OutOfRangeValue,
                               match="alternative value 7 outside domain of "
                                     "ST"):
                contrastive_cause(query, mode, value_alternative=7)
        assert len(loaded.model.plans) == 0

    def test_counterfactual_effect_is_a_typed_error(self, corpus):
        model, u = ctx(corpus, "rock_refined", "both")
        query = CauseQuery(model, u, cause_of(p("ST", 1)),
                           Basic((("ST", 0),), p("BS", 1)))
        with pytest.raises(UnknownVariable) as err:
            is_actual_cause(query)
        assert str(err.value) == "intervention operators are not allowed here"

    def test_cyclic_model_is_refused(self):
        sig = Signature(("U",), ("X", "Y"),
                        {n: Domain((0, 1)) for n in ("U", "X", "Y")})
        model = build_model(sig, [
            Mechanism.from_table("X", ("Y",), {(0,): 0, (1,): 1}),
            Mechanism.from_table("Y", ("X",), {(0,): 0, (1,): 1}),
        ])
        with pytest.raises(NotRecursive, match="requires a recursive model"):
            is_actual_cause(CauseQuery(model, {"U": 0}, cause_of(p("X", 0)),
                                       p("Y", 0)))
        with pytest.raises(NotRecursive, match="requires a recursive model"):
            enumerate_causes(model, {"U": 0}, p("Y", 0))


class TestVariantBoundary:
    """A variant is a DefinitionVariant or its value, converted once at the
    entry point; anything else is refused before the model is read."""

    CALLS = {
        "is_actual_cause": lambda model, u, variant: is_actual_cause(
            CauseQuery(model, u, cause_of(p("ST", 1)), p("BS", 1),
                       variant=variant)),
        "enumerate_causes": lambda model, u, variant: enumerate_causes(
            model, u, p("BS", 1), variant=variant, max_conjuncts=2),
        "active_processes": lambda model, u, variant: active_processes(
            model, u, cause_of(p("ST", 1)), p("BS", 1), variant=variant),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_value_string_is_its_variant(self, corpus, entry):
        model, u = ctx(corpus, "rock_refined", "both")
        call = self.CALLS[entry]
        for variant in DefinitionVariant:
            assert call(model, u, variant.value) == call(model, u, variant)
        if entry == "is_actual_cause":
            verdict = call(model, u, "strong")
            assert verdict.variant is DefinitionVariant.STRONG
            assert verdict.ac2c is verdict.ac2

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_unknown_variant_is_refused_before_the_model_is_read(self,
                                                                 entry):
        loaded = load_example("rock_refined").loaded
        for context in ({"UST": 9, "UBT": 1}, loaded.context("both")):
            for variant in ("bogus", "STRONG", None):
                with pytest.raises(UnknownVariant,
                                   match="unknown definition variant"):
                    self.CALLS[entry](loaded.model, context, variant)
        assert len(loaded.model.plans) == 0


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

    def test_false_conjunct_or_effect_is_no_weak_cause(self, corpus):
        """Both checks refuse a cause or an effect that is false in the
        actual world, without searching."""
        model, u = ctx(corpus, "rock_refined", "both")
        for events, effect in (((p("ST", 0),), p("BS", 1)),
                               ((p("ST", 1), p("BT", 0)), p("BS", 1)),
                               ((p("ST", 1),), p("BS", 0))):
            assert not weak_cause_bruteforce(model, u, events, effect)
            fast = is_weak_cause(CauseQuery(model, u, cause_of(*events),
                                            effect))
            assert not (fast.ac1 and fast.ac2) and not fast.overall


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
        """Two same-shape models share one code object and one relevance
        memo, and each engine answers from its own tables."""
        first, second = window_model(18, 6), window_model(19, 6)
        assert first.parents == second.parents
        assert any(first.mechanisms[v].table != second.mechanisms[v].table
                   for v in first.endogenous)
        engines = [_Engine(m, {"U": 1}, p("V5", 1)) for m in (first, second)]
        assert engines[0].probe.__code__ is engines[1].probe.__code__
        assert engines[0]._relevance is engines[1]._relevance
        for model, engine in zip((first, second), engines):
            assert probes_match_solve(model, {"U": 1}, p("V5", 1)) == 73
            actual = solve(model, {"U": 1})
            for x in model.endogenous[:-1]:
                for variant in DefinitionVariant:
                    (new, new_stats), (ref, ref_stats) = run_both(
                        engine, cause_of(p(x, actual[x])), variant, False,
                        None, False)
                    assert (new, new_stats) == (ref, ref_stats)


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


def chain_model(seed: int, n: int):
    """Binary chain C0 -> C1 -> ... from U, each link copying or negating,
    declared in a shuffled order (the benchmark's offpath family)."""
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(n)]
    mechanisms = [Mechanism.from_table("C0", ("U",), {(0,): 0, (1,): 1})]
    for prev, var in zip(names, names[1:]):
        flip = rng.randint(0, 1)
        mechanisms.append(Mechanism.from_table(
            var, (prev,), {(0,): flip, (1,): 1 - flip}))
    declared = names[:]
    rng.shuffle(declared)
    ranges = {v: Domain((0, 1)) for v in ("U", *names)}
    return build_model(Signature(("U",), tuple(declared), ranges), mechanisms)


class TestSearchCounters:
    """The counters are those of a scan that steps through every setting:
    ``partitions_examined`` counts the contingency sets tried, and
    ``settings_examined`` every (W, x', w') up to the last witness the
    caller took, or to the end.  The clause (b) memo, the boxes over
    screened clamps and the learned patterns skip probes and walks, never
    settings, so the values below predate all three."""

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

    @pytest.mark.parametrize("model, cause, effect", [
        (chain_model(0, 12), "C11", "C0"),  # the cause is not an ancestor
        (window_model(0, 12), "V0", "V11"),  # an ancestor, verdict false
    ])
    def test_twelve_variables(self, model, cause, effect):
        """A failing query searches all 2^11 contingency sets and all 3^11
        settings of the eleven binary variables beside the cause."""
        actual = solve(model, {"U": 0})
        verdict = is_actual_cause(CauseQuery(
            model, {"U": 0}, cause_of(p(cause, actual[cause])),
            p(effect, actual[effect]), max_vars=64))
        stats = verdict.stats
        assert (verdict.overall, stats.partitions_examined,
                stats.settings_examined) == (False, 2_048, 177_147)

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


def reference_witnesses(engine, cause, variant, stats, fixed_w=None,
                        x_override=None):
    """The per-setting AC2 scan, kept as the reference for _Engine.witnesses:
    every setting of every contingency set is counted and then checked
    clause by clause as the definition reads, with no memo, no relevance
    and no learned pattern.  Only ``probe`` is shared with the engine."""
    endo, actual, domains = engine.endo, engine.actual, engine.domains
    xvars = cause.vars
    x_held = dict(zip(xvars, x_override if x_override is not None
                      else cause.values))
    free = [v for v in endo if v not in xvars]
    legacy = variant is DefinitionVariant.LEGACY
    strong = variant is DefinitionVariant.STRONG

    def outcome(clamps):
        return engine.probe(engine.key(clamps.items()))

    def subsets(items):
        return itertools.chain.from_iterable(
            itertools.combinations(items, k) for k in range(len(items) + 1))

    def b_holds(pins):
        process = [v for v in free if v not in pins]
        for w_part in [tuple(pins)] if legacy else subsets(tuple(pins)):
            for z_part in subsets(process):
                clamps = dict(x_held)
                clamps.update((w, pins[w]) for w in w_part)
                clamps.update((v, actual[v]) for v in z_part)
                holds, _, allowed = outcome(clamps)
                if allowed and not holds:
                    return False
        return True

    def c_holds(w_set):
        for w_prime in itertools.product(*(domains[w] for w in w_set)):
            clamps = {**x_held, **dict(zip(w_set, w_prime))}
            holds, _, allowed = outcome(clamps)
            if allowed and not holds:
                return False
        return True

    def clause_a(pins, x_prime):
        if not strong:
            clamps = {**pins, **dict(zip(xvars, x_prime))}
            _, reached, allowed = outcome(clamps)
            return x_prime if reached and allowed else None
        first = None
        for x_dev in deviations:
            _, reached, allowed = outcome({**pins, **dict(zip(xvars, x_dev))})
            if allowed and not reached:
                return None
            if allowed and first is None:
                first = x_dev
        return first

    deviations = list(itertools.product(
        *(tuple(v for v in domains[x] if v != val)
          for x, val in zip(xvars, cause.values))))
    if strong and not deviations:
        return
    bases = [None] if strong else [
        x for x in itertools.product(*(domains[x] for x in xvars))
        if x != cause.values]
    w_sets = [fixed_w] if fixed_w is not None else [
        w for k in range(len(free) + 1)
        for w in itertools.combinations(free, k)]
    for w_set in w_sets:
        stats.partitions_examined += 1
        for x_prime in bases:
            for w_prime in itertools.product(*(domains[w] for w in w_set)):
                stats.settings_examined += 1
                pins = dict(zip(w_set, w_prime))
                x_used = clause_a(pins, x_prime)
                if (x_used is None or not b_holds(pins)
                        or strong and not c_holds(w_set)):
                    continue
                yield Witness(tuple(w_set), x_used, w_prime, tuple(
                    (v, actual[v]) for v in endo if v not in w_set))


def scan_engines(seed):
    """(label, engine, target) triples over one seeded model, by seed modulo
    3: a mixed_domain_model (2-3-valued), a binary window_model or a binary
    random_recursive_model, of up to 5 variables; plain, with an allow
    formula, a frozenset and a callable allowable, with a contrasted outcome
    as the goal, and a two-variable effect under another allow formula."""
    model = [mixed_domain_model, lambda s: window_model(s, 5),
             lambda s: random_recursive_model(s, 5)][seed % 3](seed)
    endo, context = model.endogenous, {"U": seed // 3 % 2}
    actual = solve(model, context)
    rng = random.Random(900 + seed)
    last = endo[-1]
    effect = p(last, actual[last])
    formula = Or((p(endo[1], actual[endo[1]]),
                  p(endo[-2], rng.choice(model.domain_of(endo[-2]).values))))
    pool = frozenset(s for s in itertools.product(
        *(model.domain_of(v).values for v in endo))
        if s == tuple(actual[v] for v in endo) or rng.random() < 0.7)

    def in_pool(a):
        return tuple(a[v] for v in endo) in pool
    other = next(v for v in model.domain_of(last).values if v != actual[last])
    pair = conj(p(endo[-2], actual[endo[-2]]), effect)
    first = Or((effect,
                p(endo[0], rng.choice(model.domain_of(endo[0]).values))))
    for label, target, goal, defeat in (
            ("plain", model, effect, None),
            ("formula", ExtendedCausalModel(model, formula), effect, None),
            ("set", ExtendedCausalModel(model, pool), effect, None),
            ("callable", ExtendedCausalModel(model, in_pool), effect, None),
            ("defeat", model, effect, p(last, other)),
            ("pair", ExtendedCausalModel(model, first), pair, None)):
        try:
            engine = _Engine(target, context, goal, defeat=defeat)
        except DisallowedActualWorld:
            continue
        yield f"seed {seed} {label}", engine, target


def reference_first_per_set(engine, cause, variant, stats, x_override=None):
    """The reference for a scan that stops each contingency set at its first
    witness: the first witness of reference_witnesses over each set in turn,
    in scan order, with the counts of those abandoned per-set scans added."""
    free = [v for v in engine.endo if v not in cause.vars]
    for k in range(len(free) + 1):
        for w_set in itertools.combinations(free, k):
            witness = next(reference_witnesses(engine, cause, variant, stats,
                                               w_set, x_override), None)
            if witness is not None:
                yield witness


def search_cases(engine):
    """(cause, first_per_set, x_override) for every single-conjunct cause on
    an actual value and one two-conjunct cause, then the first two single
    causes under every alternative value, each scanned in full and stopped
    at each contingency set's first witness."""
    endo, actual = engine.endo, engine.actual
    singles = [cause_of(p(v, actual[v])) for v in endo[:-1]]
    cases = [(cause, None) for cause in singles + [cause_of(
        p(endo[0], actual[endo[0]]), p(endo[1], actual[endo[1]]))]]
    cases += [(cause, (alt,)) for cause in singles[:2]
              for alt in engine.domains[cause.vars[0]]
              if alt != cause.values[0]]
    for cause, x_override in cases:
        for first_per_set in (False, True):
            yield cause, first_per_set, x_override


def run_both(engine, cause, variant, first_per_set, x_override, first_only):
    """Witnesses and counts of the engine's scan and of the reference."""
    results = []
    reference = (reference_first_per_set if first_per_set
                 else reference_witnesses)
    for scan in (partial(engine.witnesses, first_per_set=first_per_set),
                 partial(reference, engine)):
        stats = SearchStats()
        found = scan(cause, variant, stats, x_override=x_override)
        found = [next(found, None)] if first_only else list(found)
        results.append((found, stats))
    return results


def sorted_blocks(engine, cause, witnesses):
    """Contingency sets whose screened slots come before a relevant one and
    that hold two or more of ``witnesses``: their order needs the sort."""
    x_mask = sum(1 << engine.index[x] for x in cause.vars)
    count = 0
    for w_set in {w.w_set for w in witnesses}:
        slots = [engine.index[w] for w in w_set]
        rel = engine._relevant(x_mask | sum(1 << i for i in slots))
        relevant = [i for i in slots if rel >> i & 1]
        screened = [i for i in slots if not rel >> i & 1]
        count += (bool(relevant and screened) and screened[0] < relevant[-1]
                  and sum(w.w_set == w_set for w in witnesses) > 1)
    return count


def dropped_boxes(engine, cause):
    """Boxes of an ``updated`` scan that the engine's learned patterns retire
    whole: a relevant setting that passes clause (a), and a pattern that
    reads none of the box's screened slots and matches its pinned key."""
    endo, index, values = engine.endo, engine.index, engine._values
    held = engine.key(zip(cause.vars, cause.values))
    groups = engine._learned.get(held, {})
    x_mask = sum(1 << index[x] for x in cause.vars)
    free = [i for i, v in enumerate(endo) if v not in cause.vars]
    count = 0
    for k in range(len(free) + 1):
        for w in itertools.combinations(free, k):
            rel = engine._relevant(x_mask | sum(1 << i for i in w))
            relevant = [i for i in w if rel >> i & 1]
            screened = {i for i in w if not rel >> i & 1}
            if not screened:
                continue
            for x_prime in itertools.product(
                    *(engine.domains[x] for x in cause.vars)):
                if x_prime == cause.values:
                    continue
                for r in itertools.product(*(values[i] for i in relevant)):
                    clamps = [*zip(cause.vars, x_prime),
                              *((endo[i], x) for i, x in zip(relevant, r))]
                    _, reached, allowed = engine.probe(engine.key(clamps))
                    pinned = list(held)
                    for i, x in zip(relevant, r):
                        pinned[i] = x if x != engine.actual[endo[i]] else _FREE
                    count += reached and allowed and any(
                        get(tuple(pinned)) in seen
                        for slots, (get, seen) in groups.items()
                        if screened.isdisjoint(slots))
    return count


def pruned_rows(engine, cause):
    """Survivors of an ``updated`` scan's per-R tables that the engine's
    learned patterns retire for good: a relevant setting that passes clause
    (a), and a pattern that reads only slots of R and matches its pinned
    key.  Each distinct R counts once."""
    endo, index, values = engine.endo, engine.index, engine._values
    held = engine.key(zip(cause.vars, cause.values))
    groups = engine._learned.get(held, {})
    x_mask = sum(1 << index[x] for x in cause.vars)
    free = [i for i, v in enumerate(endo) if v not in cause.vars]
    masks = {engine._relevant(x_mask | sum(1 << i for i in w))
             & sum(1 << i for i in w)
             for k in range(len(free) + 1)
             for w in itertools.combinations(free, k)}
    count = 0
    for mask in masks:
        relevant = [i for i in free if mask >> i & 1]
        inside = [group for slots, group in groups.items()
                  if set(slots) <= set(relevant)]
        for x_prime in itertools.product(
                *(engine.domains[x] for x in cause.vars)):
            if x_prime == cause.values:
                continue
            for r in itertools.product(*(values[i] for i in relevant)):
                clamps = [*zip(cause.vars, x_prime),
                          *((endo[i], x) for i, x in zip(relevant, r))]
                _, reached, allowed = engine.probe(engine.key(clamps))
                pinned = list(held)
                for i, x in zip(relevant, r):
                    pinned[i] = x if x != engine.actual[endo[i]] else _FREE
                count += reached and allowed and any(
                    get(tuple(pinned)) in seen for get, seen in inside)
    return count


def hub_model(seed: int):
    """Seeded model in which many contingency sets share one set of relevant
    clamps: the effect Y reads X and a gate G, G reads the feeders F0 and F1
    (which read U), so clamping G screens both, and S reads X outside the
    cone.  Variables are declared in a shuffled order, and each is binary
    or 3-valued (Y always 3-valued)."""
    rng = random.Random(4_000 + seed)
    parents = {"X": ("U",), "F0": ("U",), "F1": ("U",), "G": ("F0", "F1"),
               "S": ("X",), "Y": ("X", "G")}
    endo = list(parents)
    rng.shuffle(endo)
    ranges = {"U": Domain((0, 1))}
    ranges.update({v: Domain((0, 1, 2) if v == "Y" or rng.random() < 0.4
                             else (0, 1)) for v in endo})
    mechanisms = []
    for var in endo:
        deps = parents[var]
        rows = itertools.product(*(ranges[d].values for d in deps))
        table = {row: rng.choice(ranges[var].values) for row in rows}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    return build_model(Signature(("U",), tuple(endo), ranges), mechanisms,
                       name=f"hub_{seed}")


def hub_engines(seed):
    """(label, engine, target) triples over hub_model(seed): plain, with an
    allow formula over the gate, and with a contrasted outcome as the goal."""
    model = hub_model(seed)
    context = {"U": seed % 2}
    actual = solve(model, context)
    effect = p("Y", actual["Y"])
    other = next(v for v in model.domain_of("Y").values if v != actual["Y"])
    allow = Or((p("G", actual["G"]), p("Y", other)))
    for label, target, defeat in (
            ("plain", model, None),
            ("formula", ExtendedCausalModel(model, allow), None),
            ("defeat", model, p("Y", other))):
        yield f"hub {seed} {label}", _Engine(target, context, effect,
                                             defeat=defeat), target


class _Tripwire:
    def __getattr__(self, name):
        raise AssertionError("the legacy scan consulted a learned pattern")


class TestRelevantScan:
    """_Engine.witnesses probes clause (a) over each contingency set's
    relevant clamps and retires clause (b) failures by learned patterns; the
    per-setting reference scan must give the same witnesses, in the same
    order, with the same SearchStats, drained or stopped at the first."""

    def test_scan_matches_the_reference(self):
        compared = sort_needed = dropped = 0
        for seed in range(12):
            for label, engine, _ in scan_engines(seed):
                for cause, per_set, x_override in search_cases(engine):
                    for variant in DefinitionVariant:
                        for first_only in (False, True):
                            (new, new_stats), (ref, ref_stats) = run_both(
                                engine, cause, variant, per_set, x_override,
                                first_only)
                            case = (label, str(cause), per_set, x_override,
                                    variant, first_only)
                            assert new == ref, case
                            assert new_stats == ref_stats, case
                            compared += 1
                            if not (per_set or x_override or first_only):
                                sort_needed += sorted_blocks(engine, cause,
                                                             new)
                    if not per_set and x_override is None:
                        dropped += dropped_boxes(engine, cause)
        assert compared > 5000
        assert sort_needed > 0 and dropped > 0, (sort_needed, dropped)

    def test_contingency_sets_that_share_relevant_clamps(self):
        """Hub models, where most contingency sets share their relevant
        clamps with others, match the reference under every variant,
        scanned in full and stopped at each contingency set's first witness,
        and with an alternative cause value."""
        compared = shared = 0
        for seed in range(3):
            for label, engine, _ in hub_engines(seed):
                actual, index = engine.actual, engine.index
                for names in (("X",), ("G",), ("F0",), ("X", "G")):
                    cause = cause_of(*(p(v, actual[v]) for v in names))
                    free = [v for v in engine.endo if v not in names]
                    x_mask = sum(1 << index[v] for v in names)
                    masks = [sum(1 << index[v] for v in w)
                             for k in range(len(free) + 1)
                             for w in itertools.combinations(free, k)]
                    shared += len(masks) - len({
                        engine._relevant(x_mask | m) & m for m in masks})
                    cases = [(False, None), (True, None)]
                    cases += [(per_set, (alt,)) for per_set in (False, True)
                              for alt in engine.domains[names[0]]
                              if len(names) == 1 and alt != actual[names[0]]]
                    for (per_set, x_override), variant, first_only in (
                            itertools.product(cases, DefinitionVariant,
                                              (False, True))):
                        if per_set and first_only:
                            continue  # the first witness of either scan
                        (new, new_stats), (ref, ref_stats) = run_both(
                            engine, cause, variant, per_set, x_override,
                            first_only)
                        case = (label, names, per_set, x_override, variant,
                                first_only)
                        assert (new, new_stats) == (ref, ref_stats), case
                        compared += 1
        assert compared > 500 and shared > 500, (compared, shared)

    def test_rows_that_a_pattern_inside_their_clamps_retires(self):
        """Window and chain models of eight variables, where learned patterns
        that read only a table's relevant clamps retire some of its rows:
        every variant, drained and stopped at the first witness, matches the
        reference, over every contingency set, stopped at each set's first
        witness and with an alternative cause value."""
        compared = pruned = 0
        for make, seed in itertools.product((window_model, chain_model),
                                            range(3)):
            model = make(seed, 8)
            endo, context = model.endogenous, {"U": seed % 2}
            actual = solve(model, context)
            engine = _Engine(model, context, p(endo[-1], actual[endo[-1]]))
            cause = cause_of(p(endo[0], actual[endo[0]]))
            free = endo[1:]
            # Stopped at the first witness, both scans stop at the same one.
            cases = [(per_set, x_override, first_only)
                     for per_set, first_only in ((False, False),
                                                 (False, True), (True, False))
                     for x_override in (None, (1 - actual[endo[0]],))]
            for (per_set, x_override, first_only), variant in (
                    itertools.product(cases, DefinitionVariant)):
                (new, new_stats), (ref, ref_stats) = run_both(
                    engine, cause, variant, per_set, x_override, first_only)
                assert (new, new_stats) == (ref, ref_stats), (
                    model.name, per_set, x_override, variant, first_only)
                compared += 1
            pruned += pruned_rows(engine, cause)
        assert compared == 6 * 6 * 3 and pruned > 0, pruned

    def test_full_caches_are_emptied_without_changing_a_result(
            self, monkeypatch):
        """With the clause (b) memos, the learned patterns of each held key,
        the relevance memo and the witness-part table capped at four entries,
        the scan still matches the reference, and none grows past its cap."""
        monkeypatch.setattr(cause_module, "_MEMO_CAP", 4)
        monkeypatch.setattr(cause_module, "_LEARNED_CAP", 4)
        monkeypatch.setattr(cause_module, "_RELEVANCE_CAP", 4)
        monkeypatch.setattr(cause_module, "_PARTS_CAP", 4)
        compared = 0
        engines = [(label, engine) for seed in range(3)
                   for label, engine, _ in itertools.chain(
                       scan_engines(seed), hub_engines(seed))]
        for label, engine in engines:
            engine._relevance.clear()  # shared: earlier engines may fill it
            for cause, per_set, x_override in search_cases(engine):
                for variant in DefinitionVariant:
                    (new, new_stats), (ref, ref_stats) = run_both(
                        engine, cause, variant, per_set, x_override, False)
                    assert (new, new_stats) == (ref, ref_stats), (
                        label, str(cause), per_set, x_override, variant)
                    compared += 1
            assert all(len(memo) <= 4 for memo in engine._b_memo.values())
            assert len(engine._relevance) <= 4
            assert len(cause_module._PARTS) <= 4
            assert all(sum(len(seen) for _, seen in groups.values()) <= 4
                       for groups in engine._learned.values())
        assert compared > 1000, compared

    def test_legacy_never_consults_patterns(self):
        for seed in range(6):
            for label, engine, _ in scan_engines(seed):
                cases = list(search_cases(engine))
                for cause, per_set, x_override in cases:
                    list(engine.witnesses(cause, DefinitionVariant.UPDATED,
                                          SearchStats(), first_per_set=per_set,
                                          x_override=x_override))
                learned, engine._learned = engine._learned, _Tripwire()
                assert any(learned.values()) or seed % 3 != 1, label
                for cause, per_set, x_override in cases:
                    (new, new_stats), (ref, ref_stats) = run_both(
                        engine, cause, DefinitionVariant.LEGACY, per_set,
                        x_override, False)
                    assert (new, new_stats) == (ref, ref_stats), label

    def test_learned_patterns_only_retire_failing_walks(self):
        """Every pinned key that matches a learned pattern fails clause (b)
        when walked directly."""
        retired = 0
        for seed in range(8):
            for label, engine, _ in scan_engines(seed):
                for cause, per_set, x_override in search_cases(engine):
                    for variant in (DefinitionVariant.UPDATED,
                                    DefinitionVariant.STRONG):
                        list(engine.witnesses(cause, variant, SearchStats(),
                                              first_per_set=per_set,
                                              x_override=x_override))
                actual = [engine.actual[v] for v in engine.endo]
                for held, groups in engine._learned.items():
                    free = tuple(i for i, h in enumerate(held) if h is _FREE)
                    columns = [tuple(dict.fromkeys(
                        _FREE if x == actual[i] else x
                        for x in engine._values[i])) if h is _FREE else (h,)
                        for i, h in enumerate(held)]
                    for pinned in itertools.product(*columns):
                        if any(get(pinned) in seen
                               for get, seen in groups.values()):
                            assert engine._b_holds(
                                pinned, held, free) is not None, label
                            retired += 1
        assert retired > 100

    def test_screened_clamps_cannot_change_a_probe(self):
        """Changing or freeing a clamp that _relevant screens, alone or all
        together, leaves the triple of public solve + eval_event as it was,
        and probe reports that triple."""
        checked = 0
        for seed in range(10):
            model = (mixed_domain_model(seed) if seed % 2 == 0
                     else window_model(seed, 5))
            endo, context = model.endogenous, {"U": seed // 2 % 2}
            actual = solve(model, context)
            last = endo[-1]
            other = next(v for v in model.domain_of(last).values
                         if v != actual[last])
            allow = Or((p(endo[1], actual[endo[1]]), p(last, other)))
            for effect, defeat, allowable in (
                    (p(last, actual[last]), None, None),
                    (p(endo[-2], actual[endo[-2]]), None, allow),
                    (p(last, actual[last]), p(last, other), None)):

                def triple(clamps):
                    world = solve(model, context, clamps)
                    holds = eval_event(world, effect)
                    return (holds, not holds if defeat is None
                            else eval_event(world, defeat),
                            allowable is None or eval_event(world, allowable))

                target = (model if allowable is None
                          else ExtendedCausalModel(model, allowable))
                engine = _Engine(target, context, effect, defeat=defeat)
                for k in range(len(endo) + 1):
                    for names in itertools.combinations(endo, k):
                        mask = sum(1 << engine.index[v] for v in names)
                        rel = engine._relevant(mask)
                        assert rel & ~mask == 0
                        screened = [v for v in names
                                    if not rel >> engine.index[v] & 1]
                        for values in itertools.product(
                                *(model.domain_of(v).values for v in names)):
                            clamps = dict(zip(names, values))
                            expected = triple(clamps)
                            assert engine.probe(engine.key(
                                clamps.items())) == expected
                            variants = [{v: x for v, x in clamps.items()
                                         if v not in screened}]
                            for v in screened:
                                variants.append({w: x for w, x in
                                                 clamps.items() if w != v})
                                variants.extend({**clamps, v: x} for x in
                                                model.domain_of(v).values)
                            for changed in variants:
                                assert triple(changed) == expected, (
                                    seed, clamps, changed)
                                checked += 1
        assert checked > 5000

    def test_relevant_matches_a_name_level_reference(self):
        """_relevant(mask) is exactly reference_relevant's set for every
        clamp mask: on models with variables outside the cone, 2-3-valued
        domains, a defeat goal, an allow formula and a callable allow
        rule."""
        checked, outside = 0, 0
        for seed in range(8):
            model = (mixed_domain_model(seed) if seed % 2 == 0
                     else window_model(seed, 7))
            endo, context = model.endogenous, {"U": seed // 2 % 2}
            actual = solve(model, context)
            mid = endo[len(endo) // 2]
            other = next(v for v in model.domain_of(mid).values
                         if v != actual[mid])
            allow = Or((p(endo[1], actual[endo[1]]), p(mid, other)))
            cases = (
                (p(mid, actual[mid]), None, None, [mid]),
                (p(mid, actual[mid]), p(mid, other), None, [mid]),
                (p(endo[1], actual[endo[1]]), None, allow,
                 [endo[1], mid]),
                (p(mid, actual[mid]), None, lambda a: True, list(endo)))
            for effect, defeat, allowable, reads in cases:
                target = (model if allowable is None
                          else ExtendedCausalModel(model, allowable))
                engine = _Engine(target, context, effect, defeat=defeat)
                engine._relevance.clear()  # so that every mask is walked
                for k in range(len(endo) + 1):
                    for names in itertools.combinations(endo, k):
                        mask = sum(1 << engine.index[v] for v in names)
                        expected = reference_relevant(model, reads, names)
                        assert engine._relevant(mask) == sum(
                            1 << engine.index[v] for v in expected), (
                            seed, effect, names)
                        checked += 1
                # A variable outside the cone is screened even alone.
                outside += any(not reference_relevant(model, reads, (v,))
                               for v in endo)
        assert checked > 1000 and outside > 10

    def test_two_loads_share_one_parent_mask_list(self):
        """Plans of one shape share the parent masks through the kernel
        table, as they share its relevance memo."""
        text = example_text("noise_bottle")
        first, second = (load_model(text) for _ in range(2))
        engines = [_Engine(loaded.extended(), loaded.context("noisy"),
                           p("BS3", 1)) for loaded in (first, second)]
        assert first.model is not second.model
        assert engines[0].plan is not engines[1].plan
        assert engines[0].plan.parents is engines[1].plan.parents
        assert engines[0]._relevance is engines[1]._relevance


def reference_relevant(model, reads, clamped):
    """The clamped variables that a change can reach ``reads`` from: a
    search over model.parents from ``reads`` that passes through unclamped
    endogenous variables and stops at clamped ones."""
    clamped, endo = set(clamped), set(model.endogenous)
    todo, seen, found = list(reads), set(), set()
    while todo:
        var = todo.pop()
        if var in seen:
            continue
        seen.add(var)
        if var in clamped:
            found.add(var)
        else:
            todo.extend(d for d in model.parents[var] if d in endo)
    return found


def reference_b_holds(engine, pinned, held, free, legacy):
    """The full clause (b) walk, kept as the reference for _Engine._b_holds:
    every subset of one combined option list, smallest first, with a w' pin
    or a pin at the actual value per free slot (under ``legacy`` every W pin
    is held and only the actual-value pins are optional).  Returns the slots
    of the first violating subset, or None."""
    if legacy:
        held = pinned
    options = [(i, engine.actual[engine.endo[i]]) if pinned[i] is _FREE
               else (i, pinned[i])
               for i in free if not legacy or pinned[i] is _FREE]
    for k in range(len(options) + 1):
        for combo in itertools.combinations(options, k):
            slots = list(held)
            for i, value in combo:
                slots[i] = value
            holds, _, allowed = engine.probe(tuple(slots))
            if allowed and not holds:
                return tuple(i for i, _ in combo)
    return None


def allows(target, world):
    """The allow rule of ``target`` (a model, or an extended model with an
    allow formula, set or predicate) on a solved world."""
    rule = getattr(target, "allowable", None)
    if rule is None:
        return True
    if isinstance(rule, frozenset):
        return tuple(world[v] for v in target.base.endogenous) in rule
    return bool(rule(world)) if callable(rule) else eval_event(world, rule)


def true_chain(n: int):
    """Binary chain U -> C0 -> ... -> C(n-1) of copies, so that C0=1 is an
    actual cause of C(n-1)=1 in context U=1 with the empty contingency set."""
    names = [f"C{i}" for i in range(n)]
    mechanisms = [Mechanism.from_table(var, (prev,), {(0,): 0, (1,): 1})
                  for prev, var in zip(["U", *names], names)]
    ranges = {v: Domain((0, 1)) for v in ("U", *names)}
    return build_model(Signature(("U",), tuple(names), ranges), mechanisms)


class TestReachWalk:
    """_Engine._b_holds pins at their actual values only the variables that
    a deviating clamp reaches; it must agree with the full walk."""

    def test_pruned_walk_matches_the_full_walk(self):
        """Every cause slot at every value, every pinned key, under the
        updated and the legacy reading: the same verdict as the full walk,
        and every violating subset fails clause (b) when replayed through
        solve, eval_event and the allow rule."""
        compared, violated = 0, {False: 0, True: 0}
        for seed in range(4):
            for label, engine, target in itertools.chain(
                    scan_engines(seed), hub_engines(seed)):
                endo, actual = engine.endo, engine.actual
                model = getattr(target, "base", target)
                for c, var in enumerate(endo):
                    free = tuple(i for i in range(len(endo)) if i != c)
                    for value, legacy in itertools.product(
                            engine.domains[var], (False, True)):
                        held = engine.key([(var, value)])
                        columns = [(h,) if i == c else (_FREE, *(
                            x for x in engine._values[i]
                            if legacy or x != actual[endo[i]]))
                            for i, h in enumerate(held)]
                        for pinned in itertools.product(*columns):
                            bad = engine._b_holds(
                                pinned, pinned if legacy else held, free)
                            full = reference_b_holds(engine, pinned, held,
                                                     free, legacy)
                            case = (label, var, value, pinned, legacy)
                            assert (bad is None) == (full is None), case
                            compared += 1
                            if bad is None:
                                continue
                            violated[legacy] += 1
                            assert list(bad) == sorted(set(bad)), case
                            clamps = {endo[i]: x for i, x in enumerate(
                                pinned if legacy else held) if x is not _FREE}
                            clamps.update(
                                (endo[i], actual[endo[i]] if pinned[i] is _FREE
                                 else pinned[i]) for i in bad)
                            world = solve(model, engine.context, clamps)
                            assert allows(target, world), case
                            assert not eval_event(world, engine.effect), case
        assert compared > 50_000 and min(violated.values()) > 1_000, (
            compared, violated)

    def test_true_cause_on_a_chain_walks_once(self):
        """C0=1 causes C15=1 on a 16-variable chain of copies: no clamp
        deviates in clause (b), so its walk is one probe, not 2^15."""
        model = true_chain(16)
        for variant in DefinitionVariant:
            engine = _Engine(model, {"U": 1}, p("C15", 1), max_vars=64)
            kernel, probes = engine.probe, []
            engine.probe = lambda key: probes.append(key) or kernel(key)
            verdict = _verdict(engine, cause_of(p("C0", 1)), variant)
            stats = verdict.stats
            assert (verdict.overall, stats.partitions_examined,
                    stats.settings_examined) == (True, 1, 1), variant
            assert len(probes) <= 16, (variant, len(probes))


def test_search_stats_is_exported():
    assert actualcause.SearchStats is SearchStats


def replay(loaded, queries):
    """The outcome of each query text on ``loaded``, in order."""
    return [run_query(loaded, parse_query(text, loaded)) for text in queries]


class TestPlans:
    """Plans and worlds hang off the model object: every query on a model
    that was queried before must answer exactly as on a fresh load."""

    def test_queries_on_one_model_keep_to_their_own_plans(self):
        """One model object under two allow rules, beside a consequent
        contrast (a clause (a) goal of its own) and in two contexts."""
        mixes = {
            "noise_bottle": [
                "check cause N=1 of BS3=1 context noisy",
                "check cause N=1 of BS3=1 context noisy extended",
                "witnesses for N=1 of BS3=1 context noisy",
                "witnesses for N=1 of BS3=1 context noisy extended",
                "contrast cause N=1 of BS3=1 vs BS3=0 context noisy extended",
                "check cause ST=1 of BS3=1 context noisy extended",
            ],
            "april_showers": [
                "contrast cause AS=1 of F=2 vs F=1 context base",
                "check cause AS=1 of F=2 context base",
                "contrast cause AS=1 of F=2 vs F=0 context base",
            ],
            "arson_disjunctive": [
                f"check cause ML1=1 of FB=1 context {u}"
                for u in ("u11", "u10", "u01", "u11", "u10")],
        }
        for key, queries in mixes.items():
            loaded = load_example(key).loaded
            for rounds in (queries, queries[::-1], queries):
                assert replay(loaded, rounds) == [
                    replay(load_example(key).loaded, [text])[0]
                    for text in rounds], key
            if key == "arson_disjunctive":  # one plan, a world per context
                (plan,) = loaded.model.plans.values()
                assert len(plan.worlds) == 3
        loaded = load_example("noise_bottle").loaded
        replay(loaded, mixes["noise_bottle"] * 2)
        assert len(loaded.model.plans) == 3  # plain, allowed, contrasted
        context = loaded.context("noisy")
        first, second = (_Engine(loaded.extended(), context, p("BS3", 1))
                         for _ in range(2))
        assert first.plan is second.plan
        assert first.probe is second.probe  # one kernel per world
        assert first._b_memo is not second._b_memo

    def test_errors_repeat_on_every_call(self, corpus):
        model = corpus["rock_refined"].loaded.model
        context = corpus["rock_refined"].loaded.context("both")
        cause = cause_of(p("ST", 1))
        disallowed = ExtendedCausalModel(model, p("BS", 0))
        cases = [
            (DisallowedActualWorld, disallowed, context, p("BS", 1)),
            (OutOfRangeValue, model, {**context, "UST": 7}, p("BS", 1)),
            (OutOfRangeValue, model, {**context, "UST": [1]}, p("BS", 1)),
            (UnknownVariable, model, {**context, "BS": 1}, p("BS", 1)),
            (OutOfRangeValue, model, context, p("BS", 7)),
            (OutOfRangeValue, model, context, p("BS", [1])),
            (UnknownVariable, model, context, p("XX", 1)),
        ]
        for error, target, ctx, effect in cases:
            messages = []
            for _ in range(3):
                with pytest.raises(error) as raised:
                    is_actual_cause(CauseQuery(target, ctx, cause, effect))
                messages.append(str(raised.value))
            assert len(set(messages)) == 1, (error, messages)
        # The good query between the bad ones still answers, and a formula
        # that cannot be hashed gets a plan of its own with the same verdict.
        for effect in (p("BS", 1), And((Prim("BS", 1),)), And([Prim("BS", 1)])):
            assert is_actual_cause(
                CauseQuery(model, context, cause, effect)).overall is True

    def test_dropping_the_model_releases_its_plans(self):
        loaded = load_example("noise_bottle").loaded
        replay(loaded, ["check cause N=1 of BS3=1 context noisy",
                        "check cause N=1 of BS3=1 context noisy extended"])
        refs = [weakref.ref(plan) for plan in loaded.model.plans.values()]
        assert len(refs) == 2 and all(ref() is not None for ref in refs)
        del loaded
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_threads_sharing_models_agree(self, monkeypatch):
        """Plans and worlds are filled without a lock, so threads that race
        on one model may make an entry twice; with every table emptied at
        each new entry, each answer is still the one a fresh model gives."""
        monkeypatch.setattr(cause_module, "_PLANS_CAP", 1)
        monkeypatch.setattr(cause_module, "_WORLDS_CAP", 1)
        rows = [row for row in all_golden_rows() if row.key in (
            "noise_bottle", "arson_disjunctive", "april_showers")]
        shared = {row.key: load_example(row.key).loaded for row in rows}
        expected = [replay(load_example(row.key).loaded, [row.query])[0]
                    for row in rows]
        answers = {}

        def work(n):
            answers[n] = [replay(shared[row.key], [row.query])[0]
                          for row in rows[n:] + rows[:n]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(answers[n] == expected[n:] + expected[:n]
                   for n in range(4))

    def test_threads_on_one_fresh_world_agree(self):
        """Threads that start at once on a model that no query has touched
        race to make its plan and world and to read the world's parts at
        their first witness; each lists what a fresh model lists."""
        query = "witnesses for N=1 of BS3=1 context noisy extended"
        expected = replay(load_example("noise_bottle").loaded, [query])
        assert expected[0].witnesses
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                loaded = load_example("noise_bottle").loaded
                start, answers = threading.Barrier(4), []

                def work():
                    start.wait()
                    answers.append(replay(loaded, [query]))

                threads = [threading.Thread(target=work) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert answers == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_warm_and_cold_plans_agree_on_every_golden_row(self):
        """Every golden row twice on one loaded corpus, the second time over
        warm plans, and once on a fresh load: verdicts, witnesses in order,
        clause outcomes and search counts are identical."""
        rows = all_golden_rows()
        assert len(rows) == 67
        warm = {key: load_example(key).loaded for key in REGISTRY}
        cold = {key: load_example(key).loaded for key in REGISTRY}
        runs = [[replay(cases[row.key], [row.query])[0] for row in rows]
                for cases in (warm, warm, cold)]
        assert runs[0] == runs[1] == runs[2]
        assert all(warm[key].model.plans for key in REGISTRY
                   if any(row.key == key and not row.query.startswith("eval")
                          for row in rows))
