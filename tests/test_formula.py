from __future__ import annotations

import pytest

from actualcause import (
    Basic,
    build_model,
    disj,
    eval_event,
    eval_formula,
    eval_nonrecursive,
    neg,
    p,
    solve,
    solve_all,
)
from actualcause.errors import NotRecursive, OutOfRangeValue, UnknownVariable
from actualcause.formula import (
    entails,
    eval_trace,
    satisfiable_together,
    validate_causal_formula,
)
from actualcause.model import Domain, Mechanism, Signature, submodel
from conftest import random_any_model


def alive():
    return disj(p("BMC", 0), p("BMC", 1), p("BMC", 2))


class TestEventEvaluation:
    def test_june_fire_satisfies_the_fire_disjunction(self):
        assert eval_event({"F": 2}, disj(p("F", 1), p("F", 2)))

    def test_tautology(self):
        f = disj(p("X", 1), neg(p("X", 1)))
        for value in (0, 1):
            assert eval_event({"X": value}, f)

    def test_direct_lookup(self):
        assert not eval_event({"ML1": 1, "ML2": 1, "FB": 1}, p("ML1", 0))

    def test_missing_variable(self):
        with pytest.raises(UnknownVariable):
            eval_event({"X": 1}, p("Y", 1))


class TestCausalFormulaValidation:
    def test_a_clamp_is_checked_as_any_intervention(self, corpus):
        model = corpus["forest_fire"].loaded.model
        exo = model.exogenous[0]
        with pytest.raises(UnknownVariable) as via_model:
            submodel(model, {exo: 0})
        with pytest.raises(UnknownVariable) as via_formula:
            validate_causal_formula(model, Basic(((exo, 0),), p("F", 1)))
        assert str(via_formula.value) == str(via_model.value) == (
            f"cannot intervene on {exo!r}: not an endogenous variable")

    def test_value_and_repeat_faults(self, corpus):
        model = corpus["forest_fire"].loaded.model
        with pytest.raises(OutOfRangeValue, match="outside domain of L"):
            validate_causal_formula(model, Basic((("L", 7),), p("F", 1)))
        with pytest.raises(UnknownVariable, match="clamps a variable twice"):
            validate_causal_formula(model, Basic((("L", 7), ("L", 0)),
                                                 p("F", 1)))


class TestCounterfactualEvaluation:
    def test_both_matches_out_means_no_fire(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        f = Basic((("ML1", 0), ("ML2", 0)), p("FB", 0))
        assert eval_formula(loaded.model, loaded.context("u11"), f)

    def test_empty_intervention_matches_plain_truth(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        context = loaded.context("u11")
        bare = p("FB", 1)
        boxed = Basic((), bare)
        assert eval_formula(loaded.model, context, bare) \
            == eval_formula(loaded.model, context, boxed) is True

    def test_doctor_survives_without_early_treatment(self, corpus):
        loaded = corpus["doctor"].loaded
        f = Basic((("MT", 0),), alive())
        assert eval_formula(loaded.model, loaded.context("monday"), f)

    def test_cyclic_model_rejected(self):
        sig = Signature(("U",), ("X", "Y"),
                        {n: Domain((0, 1)) for n in ("U", "X", "Y")})
        model = build_model(sig, [
            Mechanism.from_table("X", ("Y",), {(0,): 0, (1,): 1}),
            Mechanism.from_table("Y", ("X",), {(0,): 0, (1,): 1}),
        ])
        with pytest.raises(NotRecursive):
            eval_formula(model, {"U": 0}, p("X", 0))

    @pytest.mark.parametrize("text, solves", [
        ("ST=1 & BT=1 & SH=1 & BH=0 & BS=1", 1),
        ("[ST<-0](BS=1) & ST=1 & BS=1", 2),
    ])
    def test_bare_events_share_one_actual_solve(self, corpus, monkeypatch,
                                                text, solves):
        from actualcause import formula
        from actualcause.dsl import parse_causal_formula
        loaded = corpus["rock_refined"].loaded
        f = parse_causal_formula(text, loaded.model)
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)
        monkeypatch.setattr(formula, "solve", counted)
        assert eval_formula(loaded.model, loaded.context("both"), f)
        assert len(calls) == solves

    def test_trace_reports_each_intervened_world(self, corpus):
        loaded = corpus["doctor"].loaded
        f = Basic((("MT", 0),), alive())
        trace = eval_trace(loaded.model, loaded.context("monday"), f)
        assert trace == [({"MT": 0}, {"MT": 0, "TT": 1, "BMC": 1})]


class TestNonRecursiveEvaluation:
    def _cycle(self):
        sig = Signature(("U",), ("X", "Y"),
                        {n: Domain((0, 1)) for n in ("U", "X", "Y")})
        return build_model(sig, [
            Mechanism.from_table("X", ("Y",), {(0,): 0, (1,): 1}),
            Mechanism.from_table("Y", ("X",), {(0,): 0, (1,): 1}),
        ])

    def test_box_needs_all_solutions_diamond_some(self):
        model = self._cycle()
        actual = {"X": 0, "Y": 0}
        # solution set {(0,0), (1,1)} frozen from the enumeration oracle
        assert solve_all(model, {"U": 0}) == [{"X": 0, "Y": 0},
                                              {"X": 1, "Y": 1}]
        assert not eval_nonrecursive(model, {"U": 0}, actual,
                                     Basic((), p("X", 0)))
        assert eval_nonrecursive(model, {"U": 0}, actual,
                                 Basic((), p("X", 0), diamond=True))

    def test_no_solution_makes_box_vacuous(self):
        # clamping C to 1 turns the rest into X = not Y, Y = X, which has no
        # simultaneous solution; the unintervened system is solvable
        model = build_model(
            Signature(("U",), ("C", "X", "Y"),
                      {n: Domain((0, 1)) for n in ("U", "C", "X", "Y")}),
            [Mechanism.from_table("C", ("U",), {(0,): 0, (1,): 1}),
             Mechanism.from_table("X", ("C", "Y"), {
                 (0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}),
             Mechanism.from_table("Y", ("C", "X"), {
                 (0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})])
        anchor = {"C": 0, "X": 0, "Y": 0}
        assert solve_all(model, {"U": 0}) == [anchor]
        assert solve_all(model, {"U": 0}, {"C": 1}) == []
        box = Basic((("C", 1),), p("X", 0))
        diamond = Basic((("C", 1),), p("X", 0), diamond=True)
        assert eval_nonrecursive(model, {"U": 0}, anchor, box)
        assert not eval_nonrecursive(model, {"U": 0}, anchor, diamond)

    def test_agrees_with_recursive_eval_on_corpus_queries(self, corpus):
        from actualcause.dsl import parse_query
        for case in corpus.values():
            loaded = case.loaded
            for row in case.golden:
                doc = parse_query(row.query, loaded)
                context = (dict(doc.context_values) if doc.context_values
                           else loaded.context(doc.context_name))
                actual = solve(loaded.model, context)
                formulas = [f for f in (doc.effect, doc.formula)
                            if f is not None]
                for f in formulas:
                    assert eval_nonrecursive(loaded.model, context, actual, f) \
                        == eval_formula(loaded.model, context, f)

    def test_duality_on_random_cyclic_models(self):
        for seed in range(60):
            model = random_any_model(seed)
            target = model.endogenous[0]
            clamp = model.endogenous[-1]
            box = Basic(((clamp, 1),), p(target, 0))
            dual = Basic(((clamp, 1),), neg(p(target, 0)), diamond=True)
            for context in ({"U": 0}, {"U": 1}):
                sols = solve_all(model, context)
                if not sols:
                    continue
                actual = sols[0]
                assert eval_nonrecursive(model, context, actual, box) \
                    == (not eval_nonrecursive(model, context, actual, dual))

    def test_rejects_non_solution_anchor(self):
        model = self._cycle()
        with pytest.raises(ValueError):
            eval_nonrecursive(model, {"U": 0}, {"X": 0, "Y": 1}, p("X", 0))


class TestFormulaCombinatorics:
    def test_satisfiability_is_domain_level(self):
        ranges = {"F": (0, 1, 2)}
        assert not satisfiable_together(ranges, p("F", 1), p("F", 2))
        assert satisfiable_together(ranges, disj(p("F", 1), p("F", 2)),
                                    neg(p("F", 0)))

    def test_entailment(self):
        ranges = {"BMC": (0, 1, 2, 3), "P": (0, 1)}
        assert entails(ranges, p("BMC", 0),
                       disj(p("BMC", 0), p("BMC", 1), p("BMC", 2)))
        assert not entails(ranges, p("P", 1), p("BMC", 0))

    def test_evaluation_is_pure(self, corpus):
        loaded = corpus["doctor"].loaded
        context = loaded.context("monday")
        f = Basic((("MT", 0),), alive())
        first = eval_formula(loaded.model, context, f)
        assert all(eval_formula(loaded.model, context, f) == first
                   for _ in range(5))
