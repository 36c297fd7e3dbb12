from __future__ import annotations

import itertools
import random

import pytest

from actualcause import (
    Domain,
    Mechanism,
    Signature,
    all_contexts,
    build_model,
    check_fixed_point,
    descendants,
    is_recursive,
    solve,
    solve_all,
    submodel,
)
from actualcause.errors import (
    DuplicateMechanism,
    MissingMechanism,
    NotRecursive,
    OutOfRangeOutput,
    OutOfRangeValue,
    SearchSpaceTooLarge,
    UndeclaredDependency,
    UnknownVariable,
)
from actualcause.model import _topological_order
from conftest import random_recursive_model


def binary(*names):
    return {n: Domain((0, 1)) for n in names}


def forest_fire():
    # single binary background input driving both igniters
    sig = Signature(("U",), ("L", "ML", "F"), binary("U", "L", "ML", "F"))
    mechs = [
        Mechanism.from_table("L", ("U",), {(0,): 0, (1,): 1}),
        Mechanism.from_table("ML", ("U",), {(0,): 0, (1,): 1}),
        Mechanism.from_table("F", ("L", "ML"), {
            (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
    ]
    return build_model(sig, mechs, name="forest_fire")


def two_cycle():
    sig = Signature(("U",), ("X", "Y"), binary("U", "X", "Y"))
    mechs = [
        Mechanism.from_table("X", ("Y",), {(0,): 0, (1,): 1}),
        Mechanism.from_table("Y", ("X",), {(0,): 0, (1,): 1}),
    ]
    return build_model(sig, mechs, name="two_cycle")


def negation_cycle():
    sig = Signature(("U",), ("X", "Y"), binary("U", "X", "Y"))
    mechs = [
        Mechanism.from_table("X", ("Y",), {(0,): 1, (1,): 0}),
        Mechanism.from_table("Y", ("X",), {(0,): 1, (1,): 0}),
    ]
    return build_model(sig, mechs, name="negation_cycle")


class TestBuildModel:
    def test_forest_fire_shape(self):
        model = forest_fire()
        assert model.endo_edges() == [("L", "F"), ("ML", "F")]
        assert model.recursive
        assert model.order == ("L", "ML", "F")

    def test_constant_mechanism_has_no_edges(self):
        sig = Signature((), ("X",), {"X": Domain((0, 1))})
        model = build_model(sig, [Mechanism.constant("X", 1)])
        assert model.endo_edges() == []
        assert solve(model, {}) == {"X": 1}

    def test_missing_table_row_rejected(self):
        sig = Signature((), ("X", "Y"), binary("X", "Y"))
        mechs = [Mechanism.constant("X", 0),
                 Mechanism.from_table("Y", ("X",), {(0,): 1})]
        with pytest.raises(MissingMechanism):
            build_model(sig, mechs)

    def test_out_of_range_output_rejected(self):
        sig = Signature((), ("X", "Y"), binary("X", "Y"))
        mechs = [Mechanism.constant("X", 0),
                 Mechanism.from_table("Y", ("X",), {(0,): 2, (1,): 0})]
        with pytest.raises(OutOfRangeOutput) as err:
            build_model(sig, mechs)
        assert err.value.target == "Y"
        assert err.value.inputs == {"X": 0}

    # Y reads A in {0, 1, 2} and B in {0, 1}; rows in domain-product order.
    AB = Signature((), ("A", "B", "Y"),
                   {"A": Domain((0, 1, 2)), **binary("B", "Y")})
    ROWS = list(itertools.product((0, 1, 2), (0, 1)))

    def build_y(self, table):
        return build_model(self.AB, [Mechanism.constant("A", 0),
                                     Mechanism.constant("B", 0),
                                     Mechanism.from_table("Y", ("A", "B"),
                                                          table)])

    def test_first_missing_row_in_domain_product_order(self):
        table = {row: 0 for row in reversed(self.ROWS)
                 if row not in ((1, 0), (2, 1))}
        with pytest.raises(MissingMechanism,
                           match=r"has no row for \{'A': 1, 'B': 0\}"):
            self.build_y(table)
        # A key that is no tuple matches no row, whatever its length.
        table = {**{row: 0 for row in self.ROWS if row != (0, 1)},
                 frozenset({0, 1}): 0}
        with pytest.raises(MissingMechanism,
                           match=r"has no row for \{'A': 0, 'B': 1\}"):
            self.build_y(table)

    @pytest.mark.parametrize("stray, error, message", [
        ((0,), MissingMechanism, r"row \(0,\) does not match"),
        ((0, 1, 0), MissingMechanism, r"row \(0, 1, 0\) does not match"),
        ((3, 0), OutOfRangeValue, r"row key \(3, 0\) uses a value outside"),
        ((0, 2), OutOfRangeValue, r"row key \(0, 2\) uses a value outside"),
    ])
    def test_stray_key_is_reported_before_any_row(self, stray, error,
                                                  message):
        # Row (0, 0) is missing and row (0, 1) is out of range as well.
        table = {(0, 1): 2, **{row: 0 for row in self.ROWS[2:]}, stray: 0}
        with pytest.raises(error, match=message):
            self.build_y(table)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: Domain(()), OutOfRangeValue,
         "a domain must contain at least one value"),
        (lambda: Domain((0, 1, 0)), OutOfRangeValue,
         "domain has duplicate values: (0, 1, 0)"),
        (lambda: Signature(("U",), ("U", "X"), binary("U", "X")),
         UnknownVariable,
         "variables declared both exogenous and endogenous: ['U']"),
        (lambda: Signature(("U", "U"), ("X",), binary("U", "X")),
         UnknownVariable, "duplicate variable declaration"),
        (lambda: Signature(("U",), ("X",), binary("U")), OutOfRangeValue,
         "no domain declared for: ['X']"),
        (lambda: Mechanism("X", ("U",), table={(0,): 0}, fn=lambda env: 0),
         MissingMechanism,
         "mechanism for X: supply exactly one of table or fn"),
        (lambda: build_model(Signature(("U",), ("X",), binary("U", "X")), [
            Mechanism.constant("U", 0), Mechanism.constant("X", 0)]),
         UndeclaredDependency,
         "mechanism target 'U' is not an endogenous variable"),
        (lambda: build_model(Signature((), ("X",), binary("X")), [
            Mechanism.from_table("X", ("X",), {(0,): 0, (1,): 1})]),
         UndeclaredDependency, "mechanism for X may not depend on itself"),
        (lambda: check_fixed_point(forest_fire(), {"U": 0},
                                   {"L": 0, "ML": 0}),
         UnknownVariable, "assignment does not cover 'F'"),
        (lambda: check_fixed_point(forest_fire(), {"U": 0},
                                   {"L": 0, "ML": 0, "F": 2}),
         OutOfRangeValue, "assignment value 2 outside domain of F"),
        (lambda: forest_fire().domain_of("Nope"), UnknownVariable,
         "unknown variable 'Nope'"),
        (lambda: descendants(forest_fire(), "U"), UnknownVariable,
         "'U' is not an endogenous variable"),
    ], ids=["empty_domain", "duplicate_value", "overlap", "repeated",
            "no_domain", "table_and_fn", "exogenous_target", "self_loop",
            "fixed_point_gap", "fixed_point_range", "unknown_variable",
            "descendants_of_exogenous"])
    def test_malformed_input_is_a_typed_error(self, make, error, message):
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message

    def test_first_out_of_range_output_in_domain_product_order(self):
        table = {row: 0 for row in reversed(self.ROWS)}
        table[2, 0] = table[1, 1] = 5
        with pytest.raises(OutOfRangeOutput) as err:
            self.build_y(table)
        assert (err.value.target, err.value.inputs) == ("Y", {"A": 1, "B": 1})
        # A missing row earlier in that order is found first.
        del table[0, 1]
        with pytest.raises(MissingMechanism,
                           match=r"has no row for \{'A': 0, 'B': 1\}"):
            self.build_y(table)

    def test_model_keeps_its_own_table(self):
        table = {row: row[0] % 2 for row in reversed(self.ROWS)}
        mech = Mechanism.from_table("Y", ("A", "B"), table)
        model = build_model(self.AB, [Mechanism.constant("A", 1),
                                      Mechanism.constant("B", 0), mech])
        assert model.mechanisms["Y"].table == table
        assert model.unverified_totality == ()
        mech.table[1, 0] = 0
        table[1, 0] = 0
        assert solve(model, {}) == {"A": 1, "B": 0, "Y": 1}

    def test_duplicate_and_missing_mechanisms(self):
        sig = Signature((), ("X", "Y"), binary("X", "Y"))
        with pytest.raises(DuplicateMechanism):
            build_model(sig, [Mechanism.constant("X", 0),
                              Mechanism.constant("X", 1),
                              Mechanism.constant("Y", 0)])
        with pytest.raises(MissingMechanism):
            build_model(sig, [Mechanism.constant("X", 0)])

    def test_undeclared_dependency(self):
        sig = Signature((), ("X",), {"X": Domain((0, 1))})
        with pytest.raises(UndeclaredDependency):
            build_model(sig, [Mechanism.from_table("X", ("Z",),
                                                   {(0,): 0, (1,): 0})])

    def test_oversized_mechanism_is_spot_checked(self):
        names = tuple(f"B{i}" for i in range(21))
        sig = Signature(names, ("X",),
                        {**{n: Domain((0, 1)) for n in names},
                         "X": Domain((0, 1))})
        mech = Mechanism.from_function("X", names,
                                       lambda env: max(env.values()))
        model = build_model(sig, [mech])  # 2^21 rows exceeds the check bound
        assert model.unverified_totality == ("X",)


class TestRecursion:
    def test_forest_fire_recursive(self):
        assert is_recursive(forest_fire())

    def test_two_cycle_not_recursive(self):
        assert not is_recursive(two_cycle())

    def test_time_indexed_chain_recursive(self, corpus):
        model = corpus["rock_time_indexed"].loaded.model
        assert is_recursive(model)
        assert model.order.index("BS1") < model.order.index("H2")

    @staticmethod
    def _rescan_order(endogenous, parents):
        """Kahn's order by rescanning the declarations for the first ready
        variable at every step; None on a cycle."""
        order, placed = [], set()
        while len(order) < len(endogenous):
            ready = next((v for v in endogenous if v not in placed and all(
                p in placed for p in parents[v] if p in endogenous)), None)
            if ready is None:
                return None
            order.append(ready)
            placed.add(ready)
        return tuple(order)

    def test_heap_order_matches_the_rescan_order(self):
        """Seeded random DAGs declared in a shuffled order, with exogenous
        and repeated parents; each also with one edge from a later variable
        to an earlier one (a cycle or not), with a self-loop added, and as
        a ring of every variable."""
        rng = random.Random(4_242)
        checked = cyclic = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            names = [f"V{i}" for i in range(n)]
            parents = {v: tuple(rng.choice(["U", *names[:i]])
                                for _ in range(rng.randint(0, 4)))
                       for i, v in enumerate(names)}
            declared = tuple(rng.sample(names, n))
            graphs = [dict(parents)]
            a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            graphs.append({**parents, names[a]: parents[names[a]] + (names[b],)})
            graphs.append({**parents, names[b]: parents[names[b]] + (names[b],)})
            graphs.append({v: (names[i - 1],) for i, v in enumerate(names)})
            for graph in graphs:
                expected = self._rescan_order(declared, graph)
                assert _topological_order(declared, graph) == expected
                checked += 1
                cyclic += expected is None
        assert checked == 1_200 and 600 < cyclic < 900


class TestSubmodel:
    def test_clamping_one_igniter_rewrites_the_fire_rule(self):
        model = forest_fire()
        sub = submodel(model, {"L": 0})
        assert "L" not in sub.endogenous
        fire = sub.mechanisms["F"]
        assert fire.deps == ("ML",)
        assert fire.table == {(0,): 0, (1,): 1}

    def test_empty_intervention_is_identity(self):
        model = forest_fire()
        sub = submodel(model, {})
        for context in all_contexts(model):
            assert solve(sub, context) == solve(model, context)

    def test_full_clamp_leaves_no_mechanisms(self):
        model = forest_fire()
        clamp = {"L": 0, "ML": 1, "F": 1}
        sub = submodel(model, clamp)
        assert sub.endogenous == ()
        assert sub.mechanisms == {}
        assert solve(model, {"U": 1}, clamp) == clamp

    def test_exogenous_clamp_rejected(self):
        with pytest.raises(UnknownVariable):
            submodel(forest_fire(), {"U": 0})

    def test_out_of_range_clamp_rejected(self):
        with pytest.raises(OutOfRangeValue):
            submodel(forest_fire(), {"L": 7})

    def test_composition_equals_joint_clamp(self):
        for seed in range(40):
            model = random_recursive_model(seed)
            endo = model.endogenous
            if len(endo) < 2:
                continue
            first, second = {endo[0]: 1}, {endo[-1]: 0}
            stepwise = submodel(submodel(model, first), second)
            joint = submodel(model, {**first, **second})
            for context in all_contexts(model):
                assert solve(stepwise, context) == solve(joint, context)

    def test_spot_checked_rule_stays_flagged(self):
        """A keeps its 128^3-row rule, too large to verify, in the
        submodel that clamps B, and is still listed as unverified."""
        exo = ("U1", "U2", "U3")
        ranges = {u: Domain(tuple(range(128))) for u in exo}
        sig = Signature(exo, ("A", "B"), {**ranges, **binary("A", "B")})
        model = build_model(sig, [
            Mechanism.from_function("A", exo, lambda env: env["U1"] % 2),
            Mechanism.constant("B", 0)])
        assert model.unverified_totality == ("A",)
        sub = submodel(model, {"B": 1})
        assert sub.unverified_totality == ("A",)
        context = {"U1": 5, "U2": 0, "U3": 127}
        assert solve(sub, context) == {"A": 1}


class TestSolve:
    def test_disjunctive_arson_actual_world(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        sol = solve(loaded.model, loaded.context("u11"))
        assert sol == {"ML1": 1, "ML2": 1, "FB": 1}

    def test_conjunctive_arson_under_intervention(self, corpus):
        loaded = corpus["arson_conjunctive"].loaded
        sol = solve(loaded.model, loaded.context("u11"),
                    {"ML1": 0, "ML2": 1})
        assert sol["FB"] == 0

    def test_not_recursive_raises(self):
        with pytest.raises(NotRecursive):
            solve(two_cycle(), {"U": 0})

    def test_solution_is_fixed_point_on_every_corpus_context(self, corpus):
        for case in corpus.values():
            model = case.loaded.model
            for context in all_contexts(model):
                assert check_fixed_point(model, context, solve(model, context))


class TestSolveAll:
    def test_copying_cycle_has_both_constant_points(self):
        sols = solve_all(two_cycle(), {"U": 0})
        assert sols == [{"X": 0, "Y": 0}, {"X": 1, "Y": 1}]

    def test_negation_cycle_points_from_enumeration_oracle(self):
        # oracle first: filter all four assignments by the fixed-point check
        model = negation_cycle()
        expected = [dict(zip(("X", "Y"), combo))
                    for combo in itertools.product((0, 1), repeat=2)
                    if check_fixed_point(model, {"U": 0},
                                         dict(zip(("X", "Y"), combo)))]
        assert expected == [{"X": 0, "Y": 1}, {"X": 1, "Y": 0}]
        assert solve_all(model, {"U": 0}) == expected

    def test_recursive_models_have_singleton_solution_sets(self, corpus):
        for case in corpus.values():
            model = case.loaded.model
            for context in all_contexts(model):
                assert solve_all(model, context) == [solve(model, context)]
        for seed in range(200):
            model = random_recursive_model(seed)
            for context in ({"U": 0}, {"U": 1}):
                assert solve_all(model, context) == [solve(model, context)]

    def test_enumeration_cap(self):
        with pytest.raises(SearchSpaceTooLarge):
            solve_all(forest_fire(), {"U": 1}, cap=4)


class TestCheckFixedPoint:
    def test_rejects_non_solution(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        assert not check_fixed_point(loaded.model, loaded.context("u11"),
                                     {"ML1": 1, "ML2": 1, "FB": 0})

    def test_fully_clamped_model_accepts_its_clamp(self):
        sub = submodel(forest_fire(), {"L": 1, "ML": 0, "F": 1})
        assert check_fixed_point(sub, {"U": 0}, {})


class TestGraphFacts:
    def test_intervening_on_non_ancestor_never_moves_a_variable(self, corpus):
        for case in corpus.values():
            model = case.loaded.model
            for context in all_contexts(model):
                base = solve(model, context)
                for a in model.endogenous:
                    reach = descendants(model, a)
                    for b in model.endogenous:
                        if b in reach:
                            continue
                        for value in model.domain_of(a):
                            moved = solve(model, context, {a: value})
                            assert moved[b] == base[b]

    def test_mechanisms_ignore_undeclared_inputs(self, corpus):
        # toggling any variable outside a mechanism's dependency list can
        # never change its output
        for case in corpus.values():
            model = case.loaded.model
            for mech in model.mechanisms.values():
                rows = itertools.product(
                    *(model.domain_of(d).values for d in mech.deps))
                for row in itertools.islice(rows, 16):
                    env = dict(zip(mech.deps, row))
                    base = mech.value_at(env)
                    for other in model.signature.variables:
                        if other in mech.deps or other == mech.target:
                            continue
                        for value in model.domain_of(other):
                            assert mech.value_at({**env, other: value}) == base
