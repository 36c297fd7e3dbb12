from __future__ import annotations

import pytest

from actualcause import (
    Domain,
    Mechanism,
    Signature,
    all_contexts,
    build_model,
    document_from_model,
    load_model,
    parse_model,
    parse_query,
    run_query,
    serialize_model,
    solve,
)
from actualcause.cause import DefinitionVariant
from actualcause.corpus import REGISTRY, example_text
from actualcause.dsl import (
    Cmp,
    Lit,
    Name,
    formula_text,
    parse_causal_formula,
    parse_event_formula,
    tokenize,
)
from actualcause.errors import (
    CausalityError,
    DslSyntaxError,
    DslTypeError,
    UnknownIdentifier,
)
from actualcause.formula import And, Basic, Not, Or, Prim

FIRE = """
model fire {
  exo UL : {0, 1}
  exo UML : {0, 1}
  var L : {0, 1}
  var ML : {0, 1}
  var F : {0, 1}
  eq L = UL
  eq ML = UML
  eq F = L | ML
  context base { UL = 1, UML = 1 }
}
"""


class TestParseModel:
    def test_disjunctive_fire_document(self):
        loaded = load_model(FIRE)
        model = loaded.model
        assert model.endo_edges() == [("L", "F"), ("ML", "F")]
        assert model.mechanisms["F"].table == {
            (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        assert solve(model, loaded.context("base")) == {"L": 1, "ML": 1, "F": 1}

    def test_empty_body_is_a_syntax_error(self):
        with pytest.raises(DslSyntaxError):
            parse_model("model nothing { }")

    def test_integer_sum_needs_a_wide_enough_domain(self):
        good = """
        model votes {
          exo U1 : {0, 1}
          exo U2 : {0, 1}
          var V1 : {0, 1}
          var V2 : {0, 1}
          var M : {0, 1, 2}
          eq V1 = U1
          eq V2 = U2
          eq M = V1 + V2
          context both { U1 = 1, U2 = 1 }
        }
        """
        loaded = load_model(good)
        assert solve(loaded.model, loaded.context("both"))["M"] == 2
        with pytest.raises(DslTypeError) as err:
            load_model(good.replace("var M : {0, 1, 2}", "var M : {0, 1}"))
        assert err.value.line > 0

    def test_diagnostics_carry_positions(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_model("model broken {\n  var X : {0, 1}\n  eq X = \n}")
        assert (err.value.line, err.value.column) == (4, 1)

    def test_unknown_identifier_in_equation(self):
        text = FIRE.replace("eq F = L | ML", "eq F = L | Nowhere")
        with pytest.raises(UnknownIdentifier):
            load_model(text)

    def test_boolean_operators_need_binary_values(self):
        text = """
        model bad {
          exo U : {0, 1}
          var X : {0, 1, 2}
          var Y : {0, 1}
          eq X = U + U
          eq Y = X | U
          context c { U = 1 }
        }
        """
        with pytest.raises(DslTypeError):
            load_model(text)

    def test_case_without_applicable_arm_is_rejected(self):
        text = """
        model gap {
          exo U : {0, 1}
          var X : {0, 1}
          eq X = case { U = 1 : 1 }
          context c { U = 1 }
        }
        """
        with pytest.raises(DslTypeError):
            load_model(text)

    def test_context_must_cover_every_input(self):
        text = FIRE.replace("context base { UL = 1, UML = 1 }",
                            "context base { UL = 1 }")
        with pytest.raises(DslTypeError):
            load_model(text)

    def test_context_assigning_a_variable_twice_is_rejected(self):
        text = FIRE.replace("context base { UL = 1, UML = 1 }",
                            "context base { UL = 1, UML = 1\n UL = 0 }")
        with pytest.raises(DslSyntaxError) as err:
            load_model(text)
        assert (err.value.line, err.value.column) == (12, 2)

    @pytest.mark.parametrize("op", [" + ", " & "])
    def test_equations_above_the_row_bound_are_spot_checked(self, op):
        # 21 binary inputs give 2^21 rows, above the exhaustive bound of 2^20
        inputs = [f"U{i}" for i in range(21)]
        lines = ["model wide {"] + [f"  exo {u} : {{0, 1}}" for u in inputs]
        lines += ["  var Y : {0, 1}", "  eq Y = " + op.join(inputs), "}"]
        text = "\n".join(lines)
        eq_line = len(lines) - 1
        if op == " + ":
            with pytest.raises(DslTypeError) as err:
                load_model(text)
            assert err.value.line == eq_line
        else:
            assert load_model(text).model.unverified_totality == ("Y",)

    @pytest.mark.parametrize("expr, error, message", [
        ("Y", DslTypeError, "equation for Y refers to itself"),
        ("X | Nowhere", UnknownIdentifier,
         "'Nowhere' is neither a variable nor a domain value"),
        ("X = 7", DslTypeError, "7 is not in the domain of X"),
        ("3 = X", DslTypeError, "3 is not in the domain of X"),
        ("S = 1", DslTypeError, "1 is not in the domain of S"),
        ("!X", DslTypeError, "in the equation for Y: boolean operator "
                             "applied to non-0/1 value 2"),
        ("X & U", DslTypeError, "in the equation for Y: boolean operator "
                                "applied to non-0/1 value 2"),
        ("U | X", DslTypeError, "in the equation for Y: boolean operator "
                                "applied to non-0/1 value 2"),
        ("if X then 1 else 0", DslTypeError, "in the equation for Y: boolean "
                                             "operator applied to non-0/1 "
                                             "value 2"),
        ("case { X : 1, else : 0 }", DslTypeError, "in the equation for Y: "
                                                   "boolean operator applied "
                                                   "to non-0/1 value 2"),
        ("S + U", DslTypeError, "in the equation for Y: arithmetic applied "
                                "to non-integer value 'a'"),
        ("U - S", DslTypeError, "in the equation for Y: arithmetic applied "
                                "to non-integer value 'a'"),
        ("min(U, S)", DslTypeError, "in the equation for Y: arithmetic "
                                    "applied to non-integer value 'a'"),
        ("max(S, U)", DslTypeError, "in the equation for Y: arithmetic "
                                    "applied to non-integer value 'a'"),
        ("case { U = 1 : 1 }", DslTypeError,
         "in the equation for Y: no case arm applies at {'U': 0}"),
        # two faults: the first in post-order (children before parents,
        # left to right) is reported, and every static fault comes before
        # any evaluation fault
        ("Y = 7", DslTypeError, "equation for Y refers to itself"),
        ("Nowhere | Y", UnknownIdentifier,
         "'Nowhere' is neither a variable nor a domain value"),
        ("Y | Nowhere", DslTypeError, "equation for Y refers to itself"),
        ("(X = 7) | Nowhere", DslTypeError, "7 is not in the domain of X"),
        ("!X | Nowhere", UnknownIdentifier,
         "'Nowhere' is neither a variable nor a domain value"),
        ("(S + U) | !X", DslTypeError, "in the equation for Y: arithmetic "
                                       "applied to non-integer value 'a'"),
    ])
    def test_equation_diagnostics(self, expr, error, message):
        text = ("model diag {\n  exo U : {0, 1}\n  exo S : {a, b}\n"
                "  var X : {0, 1, 2}\n  var Y : {0, 1}\n  eq X = U + U\n"
                f"  eq Y = {expr}\n  context c {{ U = 1, S = a }}\n}}\n")
        with pytest.raises(CausalityError) as err:
            load_model(text)
        assert type(err.value) is error
        assert err.value.message == message
        assert (err.value.line, err.value.column) == (7, 6)

    def test_token_positions(self):
        text = "a\t<=> b\r\n  => c # x <- d\n!= <- e"
        assert [(t.kind, t.text, t.line, t.column) for t in tokenize(text)] \
            == [("ident", "a", 1, 1), ("<=>", "<=>", 1, 3),
                ("ident", "b", 1, 7), ("=>", "=>", 2, 3),
                ("ident", "c", 2, 6), ("!=", "!=", 3, 1),
                ("<-", "<-", 3, 4), ("ident", "e", 3, 7), ("eof", "", 3, 8)]

    def test_comments_and_newlines_are_insignificant(self):
        squashed = " ".join(line.split("#")[0]
                            for line in FIRE.strip().splitlines())
        assert parse_model(squashed) == parse_model(FIRE)


SMALL = """model m {
 exo U : {0, 1}
 var X : {0, 1}
 var Y : {0, 1}
 eq X = U
 eq Y = X
 context c { U = 1 }
}
"""


@pytest.mark.parametrize("text, error, message", [
    (SMALL.replace("var Y", "var X"), DslTypeError,
     "4:2: variable 'X' declared twice"),
    (SMALL.replace("Y : {0, 1}", "Y : {0, 1, 0}"), DslTypeError,
     "4:2: domain of Y has duplicate values"),
    (SMALL.replace("eq Y", "eq Z"), UnknownIdentifier,
     "6:5: equation for undeclared 'Z'"),
    (SMALL.replace("eq Y", "eq U"), DslTypeError,
     "6:5: 'U' is exogenous and cannot have an equation"),
    (SMALL.replace("eq Y = X", "eq X = 0"), DslTypeError,
     "6:5: two equations for 'X'"),
    (SMALL.replace(" eq Y = X\n", ""), DslTypeError,
     "4:2: no equation for endogenous 'Y'"),
    (SMALL.replace("}\n}", "}\n context c { U = 0 }\n}"), DslTypeError,
     "8:2: two contexts named 'c'"),
    (SMALL.replace(" context", " allow U = 1\n context"), DslTypeError,
     "7:2: in allow clause: formula mentions non-endogenous variable 'U'"),
    (SMALL.replace("var Y", "var case"), DslSyntaxError,
     "4:6: 'case' is a reserved word"),
    (SMALL.replace(" context", " bogus\n context"), DslSyntaxError,
     "7:2: expected 'exo', 'var', 'eq', 'allow', or 'context', "
     "found 'bogus'"),
    (SMALL + " x", DslSyntaxError, "9:2: expected end of input, found 'x'"),
    (SMALL.replace("eq Y = X", "eq Y = min(X)"), DslSyntaxError,
     "6:9: min needs at least two arguments"),
    ("explain cause X=1 of Y=1 context c", DslSyntaxError,
     "1:1: unknown query kind 'explain'; expected check, causes, "
     "witnesses, process, eval, or contrast"),
    ("check cause X=1 of Y=1 context c variant bogus", DslSyntaxError,
     "1:42: unknown variant 'bogus'"),
    ("check cause X=1 of Y=1", DslSyntaxError,
     "1:23: expected a 'context' clause, found 'end of input'"),
    ("contrast cause X=1 of Y=1 context c", DslSyntaxError,
     "1:27: expected 'vs' or 'rather', found 'context'"),
    ("check X=1 of Y=1 context c", DslSyntaxError,
     "1:7: expected 'cause', found 'X'"),
    (SMALL.replace("model m", "model"), DslSyntaxError,
     "1:7: expected a model name, found '{'"),
    (SMALL.replace("X : {0, 1}", "X : {}"), DslSyntaxError,
     "3:11: expected a value (integer or symbol), found '}'"),
    (SMALL.replace("eq X = U", "eq X = then"), DslSyntaxError,
     "5:9: expected a value or variable, found 'then'"),
    ("check cause X=1 of Y context c", DslSyntaxError,
     "1:22: expected '=' or '!=' after variable, found 'context'"),
])
def test_document_and_query_diagnostics(text, error, message):
    """Each check of a model document (``model ...``) or of a query on
    SMALL raises its class at its position."""
    with pytest.raises(CausalityError) as err:
        if text.startswith("model"):
            load_model(text)
        else:
            parse_query(text, load_model(SMALL))
    assert type(err.value) is error
    assert str(err.value) == message


class TestLexicalRules:
    def test_decimal_digits_of_any_script_are_integers(self):
        assert parse_event_formula("X=٣") == Prim("X", 3)
        assert parse_event_formula("X²=-1") == Prim("X²", -1)

    @pytest.mark.parametrize("parse, text, char, position", [
        (parse_model, "model m {\n  exo U : {0, ²}\n  var X : {0, 1}\n"
                      "  eq X = U\n}", "²", (2, 15)),
        (parse_event_formula, "X=¹", "¹", (1, 3)),
        (parse_event_formula, "X=1²", "²", (1, 4)),
        (parse_causal_formula, "[X<-1](Ⅻ=1)", "Ⅻ", (1, 8)),
        (parse_causal_formula, "[X<-1](_X=1)", "_", (1, 8)),
    ])
    def test_other_characters_are_unexpected(self, parse, text, char,
                                             position):
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert err.value.message == f"unexpected character {char!r}"
        assert (err.value.line, err.value.column) == position

    def test_identifier_outside_the_variable_name_rule_is_refused(self):
        # X² lexes as an identifier, which a value may be but a declared
        # variable may not.
        text = ("model m {\n  exo U : {0, 1}\n  var X² : {0, 1}\n"
                "  eq X² = U\n}")
        with pytest.raises(DslSyntaxError) as err:
            parse_model(text)
        assert err.value.message == "illegal variable name 'X²'"
        assert (err.value.line, err.value.column) == (3, 7)
        assert load_model("model m {\n  exo U : {v², w}\n  var X : {0, 1}\n"
                          "  eq X = (U = v²)\n}").model.endogenous == ("X",)

    def test_non_decimal_digit_in_a_query(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        with pytest.raises(DslSyntaxError) as err:
            parse_query("check cause ML1=¹ of FB=1 context u11", loaded)
        assert (err.value.line, err.value.column) == (1, 17)


class TestRoundTrip:
    def test_every_bundled_model_round_trips(self):
        for key in REGISTRY:
            doc = parse_model(example_text(key))
            text = serialize_model(doc)
            again = parse_model(text)
            assert again == doc, key
            assert serialize_model(again) == text, key

    def test_expressions_and_formulas_share_one_precedence(self):
        body = ("  eq A = if U then 1 - U + 1 else min(U, 2)\n"
                "  eq B = (U | A = 1) & !(A = 2 & U) | !U = 1 - U"
                " | (U | A = 0)\n"
                "  allow ((A = 1 | B = 1) & !(A = 0 & B != 1)"
                " | (A = 2 | B = 0))\n")
        text = ("model p {\n  exo U : {0, 1}\n  var A : {0, 1, 2}\n"
                "  var B : {0, 1}\n" + body + "}\n")
        doc = parse_model(text.replace("!U = 1 - U", "!(U = 1 - U)")
                              .replace("allow ((", "allow (")
                              .replace("B = 0))\n", "B = 0)\n"))
        assert serialize_model(doc) == text
        f = parse_causal_formula("!([A<-1](B=0 | A=1) & <>(B!=1))")
        assert formula_text(f) == "!([A <- 1](B = 0 | A = 1) & <>(B != 1))"

    def test_a_foreign_node_is_not_printed(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            formula_text(object())

    @pytest.mark.parametrize("equation, expr", [
        ("!X", Not(Name("X"))),
        ("!(A = 1 & B = 1)", Not(And((Cmp("=", Name("A"), Lit(1)),
                                      Cmp("=", Name("B"), Lit(1)))))),
        ("!!X", Not(Not(Name("X")))),
    ])
    def test_equation_negation_pins(self, equation, expr):
        text = ("model pin {\n  exo U : {0, 1}\n  var X : {0, 1}\n"
                "  var A : {0, 1}\n  var B : {0, 1}\n  var Y : {0, 1}\n"
                "  eq X = U\n  eq A = U\n  eq B = X\n"
                f"  eq Y = {equation}\n}}\n")
        doc = parse_model(text)
        assert doc.equations[-1].expr == expr
        assert formula_text(expr) == equation
        assert serialize_model(doc) == text
        load_model(text)

    @pytest.mark.parametrize("text, formula", [
        ("X != v", Not(Prim("X", "v"))),
        ("!(A = 1 | B = 1)", Not(Or((Prim("A", 1), Prim("B", 1))))),
        ("(A = 1 | B = 1) & C = 1",
         And((Or((Prim("A", 1), Prim("B", 1))), Prim("C", 1)))),
    ])
    def test_formula_pins(self, text, formula):
        assert formula_text(formula) == text
        assert parse_causal_formula(text) == formula

    def test_allow_clause_round_trips(self):
        doc = parse_model(example_text("noise_bottle"))
        assert doc.allows[0].formula == Not(And((Prim("BS1", 0),
                                                 Prim("H1", 1))))
        again = parse_model(serialize_model(doc))
        assert again.allows == doc.allows

    def test_table_form_serializes_as_exhaustive_case(self):
        loaded = load_model(FIRE.replace(  # K has a constant mechanism
            "eq F", "var K : {0, 1}\n  eq K = 1\n  eq F"))
        doc = document_from_model(loaded.model,
                                  contexts={"base": {"UL": 1, "UML": 1}})
        text = serialize_model(doc)
        assert "case {" in text
        rebuilt = load_model(text)
        for var in loaded.model.endogenous:
            assert rebuilt.model.mechanisms[var].table == \
                loaded.model.mechanisms[var].table
        for context in all_contexts(loaded.model):
            assert solve(rebuilt.model, context) == solve(loaded.model, context)

    def test_function_mechanism_has_no_document(self):
        names = tuple(f"B{i}" for i in range(21))
        sig = Signature(names, ("X",), {n: Domain((0, 1))
                                        for n in names + ("X",)})
        model = build_model(sig, [Mechanism.from_function(
            "X", names, lambda env: max(env.values()))])  # spot-checked
        with pytest.raises(DslTypeError,
                           match="^mechanism for X has no table form$"):
            document_from_model(model)


class TestFormulaSyntax:
    def test_causal_formula_shapes(self):
        loaded = load_model(FIRE)
        f = parse_causal_formula("[L<-0, ML<-1](F=0) | <L<-1>(F=1)",
                                 loaded.model)
        assert isinstance(f, Or)
        box, diamond = f.parts
        assert isinstance(box, Basic) and not box.diamond
        assert box.intervention == (("L", 0), ("ML", 1))
        assert isinstance(diamond, Basic) and diamond.diamond

    def test_implication_desugars(self):
        f = parse_event_formula("L=1 => F=1")
        assert f == Or((Not(Prim("L", 1)), Prim("F", 1)))

    def test_out_of_domain_value_rejected(self):
        loaded = load_model(FIRE)
        with pytest.raises(UnknownIdentifier):
            parse_event_formula("F=9", loaded.model)

    def test_equivalence_in_a_query_effect_desugars(self):
        doc = parse_query("check cause X=1 of X=1 <=> Y=1 context c",
                          load_model(SMALL))
        x, y = Prim("X", 1), Prim("Y", 1)
        assert doc.effect == And((Or((Not(x), y)), Or((Not(y), x))))

    def test_counterfactual_implication_desugars(self):
        loaded = load_model(FIRE)
        f = parse_causal_formula("[L<-0](F=0) => F=1", loaded.model)
        assert f == Or((Not(Basic((("L", 0),), Prim("F", 0))), Prim("F", 1)))

    def test_counterfactual_implication_in_eval_query(self):
        loaded = load_model(FIRE)
        doc = parse_query("eval [L<-0, ML<-0](F=0) => F=0 context base",
                          loaded)
        assert isinstance(doc.formula, Or)
        assert run_query(loaded, doc).verdict is False

    def test_exogenous_variables_are_not_events(self):
        loaded = load_model(FIRE)
        with pytest.raises(UnknownIdentifier):
            parse_event_formula("UL=1", loaded.model)


class TestParseQuery:
    def test_check_query(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        doc = parse_query("check cause ML1=1 of FB=1 context u11", loaded)
        assert doc.kind == "check"
        assert str(doc.cause) == "ML1=1"
        assert doc.effect == Prim("FB", 1)
        assert doc.context_name == "u11"
        assert doc.variant is DefinitionVariant.UPDATED

    def test_eval_query(self, corpus):
        loaded = corpus["doctor"].loaded
        doc = parse_query(
            "eval [MT<-0](BMC=0 | BMC=1 | BMC=2) context monday", loaded)
        assert doc.kind == "eval"
        assert isinstance(doc.formula, Basic)

    def test_malformed_query_reports_position(self, corpus):
        loaded = corpus["arson_disjunctive"].loaded
        with pytest.raises(DslSyntaxError) as err:
            parse_query("check cause of", loaded)
        assert err.value.line == 1 and err.value.column > 1

    def test_inline_context_and_options(self, corpus):
        loaded = corpus["prisoner"].loaded
        doc = parse_query(
            "check cause A=1 of D=1 context {UA=1, UB=0, UC=1} variant legacy",
            loaded)
        assert doc.context_values == (("UA", 1), ("UB", 0), ("UC", 1))
        assert doc.variant is DefinitionVariant.LEGACY

    def test_inline_context_assigning_a_variable_twice_is_rejected(
            self, corpus):
        loaded = corpus["prisoner"].loaded
        with pytest.raises(DslSyntaxError) as err:
            parse_query("check cause A=1 of D=1 context {UA=1, UB=0, UA=0}",
                        loaded)
        assert (err.value.line, err.value.column) == (1, 45)

    @pytest.mark.parametrize("query, position", [
        ("check cause A=1 & A=1 of D=1 context base", (1, 19)),
        ("eval [A<-0, B<-1, A<-1](D=0) context base", (1, 19)),
    ])
    def test_repeated_cause_or_clamp_variable_is_rejected_at_its_token(
            self, corpus, query, position):
        loaded = corpus["prisoner"].loaded
        with pytest.raises(DslSyntaxError) as err:
            parse_query(query, loaded)
        assert err.value.message == "'A' is assigned twice"
        assert (err.value.line, err.value.column) == position

    def test_unknown_context_rejected(self, corpus):
        loaded = corpus["prisoner"].loaded
        with pytest.raises(UnknownIdentifier):
            parse_query("check cause A=1 of D=1 context nachos", loaded)

    def test_undeclared_context_is_refused_by_the_model(self, corpus):
        loaded = corpus["rock_refined"].loaded
        with pytest.raises(UnknownIdentifier) as err:
            loaded.context("nope")
        assert str(err.value) == (
            "model 'rock_refined' declares no context 'nope'")

    def test_unknown_variable_rejected(self, corpus):
        loaded = corpus["prisoner"].loaded
        with pytest.raises(UnknownIdentifier):
            parse_query("check cause Z=1 of D=1 context base", loaded)
