"""Text format for models, contexts, allowable-settings rules, and queries.

Model files (conventionally ``.hpc``) look like::

    model arson {
      exo U : {u00, u10, u01, u11}          # one domain per variable
      var ML1 : {0, 1}
      var FB : {0, 1}
      eq ML1 = (U = u10) | (U = u11)        # expression form
      eq FB = case { ML1 = 1 : 1, else : 0 }  # table form via case
      allow !(ML1 = 1 & FB = 0)             # optional; clauses conjoin
      context u11 { U = u11 }
    }

Whitespace (including newlines) is insignificant; ``#`` starts a comment that
runs to the end of the line.  An identifier is a letter followed by letters,
digits and ``_``; an integer is decimal digits, with an optional ``-`` before
it where a value is expected.  Any other character is a syntax error.

Equation expressions support value literals, variable references,
``=``/``!=`` tests yielding 0/1, ``!``/``&``/``|`` on 0/1 values,
``+``/``-``/``min``/``max`` on integer values, ``if c then a else b``, and
``case { cond : value, ..., else : value }``.  Event formulas used in
``allow`` clauses and queries support ``=``, ``!=``, ``!``, ``&``, ``|``,
``=>``, ``<=>``, and parentheses; implication and biconditional desugar to
not/and/or at parse time.  Counterfactual formulas add ``[X<-v, ...](phi)``
and its dual ``<X<-v, ...>(phi)``.

Query strings look like::

    check cause ML1=1 of FB=1 context u11
    causes of FB=1 context u11 exclude_self
    witnesses for ML1=1 of FB=1 context u11
    process for ML1=1 of FB=1 context u11
    eval [ML1<-0, ML2<-1](FB=0) context u11
    contrast cause AS=1 of F=2 vs F=1 context base
    contrast cause ML1=1 of FB=1 rather 0 context u11

followed by the context clause and the kind's options in QUERY_OPTIONS
(``variant updated|legacy|strong``, ``extended``, ``exclude_self``,
``max_conjuncts N``), each at most once, in any order; others are refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple

from . import formula as fm
from .cause import CandidateCause, DefinitionVariant
from .errors import (
    CausalityError,
    DslSyntaxError,
    DslTypeError,
    OutOfRangeOutput,
    UnknownIdentifier,
)
from .model import (
    CausalModel,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Signature,
    Value,
    _IDENT,
    _check_context,
    build_model,
)

RESERVED = {"case", "else", "if", "then", "min", "max"}

# Layout and comments, then one alternative per lexeme, tried in order, or
# the end of the text; so each match is one lexeme with the layout before it,
# and only a match at the end names no group.  ``\w`` is exactly
# ``str.isalnum`` plus ``_`` and ``\d`` exactly ``str.isdecimal``, so an
# identifier is ``\w+`` whose first character passes ``str.isalpha``, and
# ``int`` accepts every integer token.
_LEXEME = re.compile(r"(?:[ \t\r]+|#[^\n]*)*(?:(?P<newline>\n)|(?P<int>\d+)"
                     r"|(?P<ident>\w+)|(?P<punct><=>|=>|<-|!=|[{}()\[\],:=!&|+<>-])"
                     r"|(?P<other>.)|\Z)")


class Token(NamedTuple):
    kind: str          # 'ident', 'int', 'eof', or the punctuation itself
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        lexeme, column = match[kind], match.start(kind) - line_start + 1
        if kind == "other" or (kind == "ident" and not lexeme[0].isalpha()):
            raise DslSyntaxError(f"unexpected character {lexeme[0]!r}",
                                 line, column)
        tokens.append(Token(lexeme if kind == "punct" else kind, lexeme,
                            line, column))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# -- expression / document AST ----------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Cmp:
    op: str            # '=' or '!='
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Arith:
    op: str            # '+' or '-'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str            # 'min' or 'max'
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class IfE:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class CaseE:
    arms: tuple[tuple["Expr", "Expr"], ...]
    default: "Expr | None"


# Equations share the event formulas' connectives, applied to 0/1 values.
Expr = Lit | Name | Cmp | fm.Not | fm.And | fm.Or | Arith | Call | IfE | CaseE


@dataclass(frozen=True)
class VarDecl:
    kind: str          # 'exo' or 'var'
    name: str
    values: tuple[Value, ...]
    line: int | None = field(compare=False, default=None)
    column: int | None = field(compare=False, default=None)


@dataclass(frozen=True)
class EqStmt:
    target: str
    expr: Expr
    line: int | None = field(compare=False, default=None)
    column: int | None = field(compare=False, default=None)


@dataclass(frozen=True)
class AllowStmt:
    formula: fm.Formula
    line: int | None = field(compare=False, default=None)
    column: int | None = field(compare=False, default=None)


@dataclass(frozen=True)
class ContextDecl:
    name: str
    items: tuple[tuple[str, Value], ...]
    line: int | None = field(compare=False, default=None)
    column: int | None = field(compare=False, default=None)


@dataclass(frozen=True)
class ModelDocument:
    name: str
    decls: tuple[VarDecl, ...]
    equations: tuple[EqStmt, ...]
    allows: tuple[AllowStmt, ...]
    contexts: tuple[ContextDecl, ...]


@dataclass(frozen=True)
class QueryDocument:
    kind: str                       # check | causes | witnesses | process | eval | contrast
    model_name: str
    context_name: str | None = None
    context_values: tuple[tuple[str, Value], ...] | None = None
    cause: CandidateCause | None = None
    effect: fm.Formula | None = None
    formula: fm.Formula | None = None
    contrast_mode: str | None = None
    effect_alternative: fm.Formula | None = None
    value_alternative: Value | None = None
    variant: DefinitionVariant = DefinitionVariant.UPDATED
    extended: bool = False
    exclude_self: bool = False
    max_conjuncts: int = 1


# The options each query kind takes, by QueryDocument field: the only list of
# them, read by parse_query and by the command line's subcommands.
QUERY_OPTIONS: dict[str, tuple[str, ...]] = {
    "check": ("variant", "extended", "exclude_self"),
    "causes": ("variant", "extended", "exclude_self", "max_conjuncts"),
    "witnesses": ("variant", "extended"),
    "process": ("variant", "extended"),
    "eval": (),
    "contrast": ("variant", "extended", "exclude_self"),
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.here = tokens[0]  # the current token, tokens[pos]

    def advance(self) -> Token:
        tok = self.here
        self.pos += 1
        self.here = self.tokens[self.pos]
        return tok

    def fail(self, expected: str) -> None:
        tok = self.here
        got = tok.text or "end of input"
        raise DslSyntaxError(f"expected {expected}, found {got!r}",
                             tok.line, tok.column)

    def expect(self, kind: str, expected: str | None = None) -> Token:
        if self.here.kind != kind:
            self.fail(expected or repr(kind))
        return self.advance()

    def keyword(self, word: str) -> Token:
        if self.here.kind != "ident" or self.here.text != word:
            self.fail(repr(word))
        return self.advance()

    def at_keyword(self, *words: str) -> bool:
        return self.here.kind == "ident" and self.here.text in words

    def ident(self, what: str = "identifier") -> Token:
        if self.here.kind != "ident":
            self.fail(what)
        return self.advance()

    # -- values --------------------------------------------------------

    def value(self) -> Value:
        tok = self.here
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        if tok.kind == "-":
            self.advance()
            tok = self.expect("int", "integer after '-'")
            return -int(tok.text)
        if tok.kind == "ident":
            self.advance()
            return tok.text
        self.fail("a value (integer or symbol)")

    # -- equation expressions -------------------------------------------

    def expr(self) -> Expr:
        if self.at_keyword("if"):
            self.advance()
            cond = self.expr_or()
            self.keyword("then")
            then = self.expr()
            self.keyword("else")
            other = self.expr()
            return IfE(cond, then, other)
        if self.at_keyword("case"):
            return self.case_expr()
        return self.expr_or()

    def case_expr(self) -> Expr:
        self.keyword("case")
        self.expect("{", "'{' after case")
        arms: list[tuple[Expr, Expr]] = []
        default: Expr | None = None
        while True:
            if self.at_keyword("else"):
                self.advance()
                self.expect(":", "':' after else")
                default = self.expr()
                break
            cond = self.expr()
            self.expect(":", "':' in case arm")
            arms.append((cond, self.expr()))
            if self.here.kind == ",":
                self.advance()
                continue
            break
        self.expect("}", "'}' closing case")
        return CaseE(tuple(arms), default)

    def expr_or(self) -> Expr:
        return self.junctions(self.expr_not)

    def expr_not(self) -> Expr:
        if self.here.kind == "!":
            self.advance()
            return fm.Not(self.expr_not())
        return self.expr_cmp()

    def expr_cmp(self) -> Expr:
        left = self.expr_add()
        if self.here.kind in ("=", "!="):
            op = self.advance().kind
            return Cmp(op, left, self.expr_add())
        return left

    def expr_add(self) -> Expr:
        node = self.expr_atom()
        while self.here.kind in ("+", "-"):
            op = self.advance().kind
            node = Arith(op, node, self.expr_atom())
        return node

    def expr_atom(self) -> Expr:
        tok = self.here
        if tok.kind in ("int", "-"):
            return Lit(self.value())
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            if tok.text in ("min", "max"):
                self.advance()
                self.expect("(", f"'(' after {tok.text}")
                args = self.separated(self.expr)
                self.expect(")", "')'")
                if len(args) < 2:
                    raise DslSyntaxError(f"{tok.text} needs at least two "
                                         f"arguments", tok.line, tok.column)
                return Call(tok.text, tuple(args))
            if tok.text in RESERVED:
                self.fail("a value or variable")
            self.advance()
            return Name(tok.text)
        self.fail("a value, variable, or '('")

    # -- event and counterfactual formulas --------------------------------

    def formula(self, causal: bool = False) -> fm.Formula:
        """An event formula, or with ``causal`` a counterfactual formula,
        whose unary rule also takes ``[X<-v, ...](phi)`` and ``<...>(phi)``."""
        node = self.f_implies(causal)
        while self.here.kind == "<=>":
            self.advance()
            rhs = self.f_implies(causal)
            node = fm.And((fm.Or((fm.Not(node), rhs)),
                           fm.Or((fm.Not(rhs), node))))
        return node

    def f_implies(self, causal: bool) -> fm.Formula:
        node = self.junctions(lambda: self.f_unary(causal))
        if self.here.kind == "=>":
            self.advance()
            return fm.Or((fm.Not(node), self.f_implies(causal)))
        return node

    def f_unary(self, causal: bool) -> fm.Formula:
        if self.here.kind == "!":
            self.advance()
            return fm.Not(self.f_unary(causal))
        if self.here.kind == "(":
            self.advance()
            node = self.formula(causal)
            self.expect(")", "')'")
            return node
        if causal and self.here.kind in ("[", "<"):
            diamond = self.advance().kind == "<"
            iv = self.interventions(">" if diamond else "]")
            self.expect("(", "'(' before the formula body")
            body = self.formula()
            self.expect(")", "')'")
            return fm.Basic(iv, body, diamond=diamond)
        return self.f_prim()

    def f_prim(self) -> fm.Formula:
        tok = self.ident("a variable name")
        if self.here.kind == "=":
            self.advance()
            return fm.Prim(tok.text, self.value())
        if self.here.kind == "!=":
            self.advance()
            return fm.Not(fm.Prim(tok.text, self.value()))
        self.fail("'=' or '!=' after variable")

    # -- lists and bindings ----------------------------------------------

    def separated(self, item, sep: str = ",") -> list:
        """``item (sep item)*``."""
        items = [item()]
        while self.here.kind == sep:
            self.advance()
            items.append(item())
        return items

    def nary(self, op: str, operand, node):
        """``operand (op operand)*``, wrapped in ``node`` when repeated."""
        parts = self.separated(operand, op)
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def junctions(self, unary):
        """The ``|`` and ``&`` layers above ``unary``, in both grammars."""
        return self.nary("|", lambda: self.nary("&", unary, fm.And), fm.Or)

    def interventions(self, closer: str) -> tuple[tuple[str, Value], ...]:
        seen: set[str] = set()
        items = () if self.here.kind == closer else \
            tuple(self.separated(lambda: self.assignment(seen, "<-")))
        self.expect(closer, repr(closer))
        return items

    def assignment(self, seen: set[str], arrow: str = "=",
                   expected: str | None = None) -> tuple[str, Value]:
        """``X = v``, or ``X <- v`` in an intervention, in a list that has
        assigned ``seen`` so far; a variable assigned twice is an error at
        its second assignment."""
        var = self.ident("a variable name")
        self.expect(arrow, expected or repr(arrow))
        value = self.value()
        if var.text in seen:
            raise DslSyntaxError(f"{var.text!r} is assigned twice",
                                 var.line, var.column)
        seen.add(var.text)
        return var.text, value

    def assignments(self) -> tuple[tuple[str, Value], ...]:
        """``{ X = v, ... }``; the commas are optional."""
        self.expect("{", "'{'")
        items: list[tuple[str, Value]] = []
        seen: set[str] = set()
        while self.here.kind != "}":
            items.append(self.assignment(seen))
            if self.here.kind == ",":
                self.advance()
        self.expect("}", "'}'")
        return tuple(items)

    def conjunction(self) -> CandidateCause:
        """A cause: ``X = x & Y = y ...``, each variable at most once."""
        seen: set[str] = set()
        pairs = self.separated(lambda: self.assignment(
            seen, expected="'=' (cause conjuncts are equalities)"), "&")
        return CandidateCause(tuple(fm.Prim(var, v) for var, v in pairs))


# -- model documents ----------------------------------------------------------

def parse_model(text: str) -> ModelDocument:
    """Parse a model document; diagnostics carry line and column."""
    parser = _Parser(tokenize(text))
    parser.keyword("model")
    name = parser.ident("a model name").text
    parser.expect("{", "'{'")
    decls: list[VarDecl] = []
    equations: list[EqStmt] = []
    allows: list[AllowStmt] = []
    contexts: list[ContextDecl] = []
    while parser.here.kind != "}":
        tok = parser.here
        if parser.at_keyword("exo", "var"):
            parser.advance()
            var = parser.ident("a variable name")
            if var.text in RESERVED:
                raise DslSyntaxError(f"{var.text!r} is a reserved word",
                                     var.line, var.column)
            if not _IDENT.match(var.text):
                raise DslSyntaxError(f"illegal variable name {var.text!r}",
                                     var.line, var.column)
            parser.expect(":", "':'")
            parser.expect("{", "'{' opening the domain")
            values = parser.separated(parser.value)
            parser.expect("}", "'}' closing the domain")
            decls.append(VarDecl(tok.text, var.text, tuple(values),
                                 tok.line, tok.column))
        elif parser.at_keyword("eq"):
            parser.advance()
            target = parser.ident("a variable name")
            parser.expect("=", "'='")
            equations.append(EqStmt(target.text, parser.expr(),
                                    target.line, target.column))
        elif parser.at_keyword("allow"):
            parser.advance()
            allows.append(AllowStmt(parser.formula(),
                                    tok.line, tok.column))
        elif parser.at_keyword("context"):
            parser.advance()
            ctx_name = parser.ident("a context name").text
            contexts.append(ContextDecl(ctx_name, parser.assignments(),
                                        tok.line, tok.column))
        else:
            parser.fail("'exo', 'var', 'eq', 'allow', or 'context'")
    parser.advance()
    if parser.here.kind != "eof":
        parser.fail("end of input")
    if not any(d.kind == "var" for d in decls):
        raise DslSyntaxError("at least one endogenous variable is required",
                             1, 1)
    return ModelDocument(name, tuple(decls), tuple(equations),
                         tuple(allows), tuple(contexts))


# -- compiling documents into models ------------------------------------------

@dataclass(frozen=True)
class LoadedModel:
    """A parsed document together with its validated runtime objects."""

    document: ModelDocument
    model: CausalModel
    allow: fm.Formula | None
    contexts: Mapping[str, dict[str, Value]]

    def extended(self) -> ExtendedCausalModel:
        return ExtendedCausalModel(self.model, self.allow)

    def context(self, name: str) -> dict[str, Value]:
        try:
            return dict(self.contexts[name])
        except KeyError:
            raise UnknownIdentifier(f"model {self.model.name!r} declares no "
                                    f"context {name!r}") from None


def _compile(stmt: EqStmt, signature: Signature
             ) -> tuple[tuple[str, ...], Callable[[Mapping[str, Value]], Value]]:
    """Resolve an equation and build its evaluator in one walk.

    The walk visits children left to right before their parent, resolving
    each name to a variable or a domain symbol and checking each literal
    compared against a variable; the first fault in that order is raised.
    Returns the variables read, in declaration order, and a function from an
    environment of them to the equation's value.
    """
    target, where = stmt.target, (stmt.line, stmt.column)
    declared = set(signature.variables)
    symbols = {v for dom in signature.ranges.values() for v in dom.values
               if isinstance(v, str)}
    used: set[str] = set()

    def type_error(message: str) -> DslTypeError:
        return DslTypeError(f"in the equation for {target}: {message}", *where)

    def checked(expr: Expr, ok, message: str):
        evaluate = walk(expr)

        def check(env):
            value = evaluate(env)
            if not ok(value):
                raise type_error(f"{message} {value!r}")
            return value
        return check

    def truth(expr: Expr):
        return checked(expr, lambda v: v in (0, 1),
                       "boolean operator applied to non-0/1 value")

    def integer(expr: Expr):
        return checked(expr, lambda v: isinstance(v, int),
                       "arithmetic applied to non-integer value")

    def walk(expr: Expr):
        if isinstance(expr, Lit):
            value = expr.value
            return lambda env: value
        if isinstance(expr, Name):
            ident = expr.ident
            if ident == target:
                raise DslTypeError(f"equation for {target} refers to itself",
                                   *where)
            if ident in declared:
                used.add(ident)
                return lambda env: env[ident]
            if ident not in symbols:
                raise UnknownIdentifier(
                    f"{ident!r} is neither a variable nor a domain value",
                    *where)
            return lambda env: ident
        if isinstance(expr, Cmp):
            left, right = walk(expr.left), walk(expr.right)
            for ref, other in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(ref, Name) and ref.ident in declared and \
                        isinstance(other, Lit) and \
                        other.value not in signature.domain_of(ref.ident):
                    raise DslTypeError(f"{other.value!r} is not in the domain "
                                       f"of {ref.ident}", *where)
            if expr.op == "=":
                return lambda env: int(left(env) == right(env))
            return lambda env: int(left(env) != right(env))
        if isinstance(expr, fm.Not):
            body = truth(expr.body)
            return lambda env: 1 - body(env)
        if isinstance(expr, (fm.And, fm.Or)):
            parts = [truth(p) for p in expr.parts]
            decisive = int(isinstance(expr, fm.Or))

            def junction(env):
                for part in parts:
                    if part(env) == decisive:
                        return decisive
                return 1 - decisive
            return junction
        if isinstance(expr, Arith):
            left, right = integer(expr.left), integer(expr.right)
            if expr.op == "+":
                return lambda env: left(env) + right(env)
            return lambda env: left(env) - right(env)
        if isinstance(expr, Call):
            args = [integer(a) for a in expr.args]
            pick = min if expr.fn == "min" else max
            return lambda env: pick([a(env) for a in args])
        if isinstance(expr, IfE):
            cond, then, other = truth(expr.cond), walk(expr.then), walk(expr.other)
            return lambda env: then(env) if cond(env) else other(env)
        # CaseE, the one kind left
        arms = [(truth(c), walk(r)) for c, r in expr.arms]
        default = None if expr.default is None else walk(expr.default)

        def case(env):
            for cond, result in arms:
                if cond(env):
                    return result(env)
            if default is None:
                raise type_error(f"no case arm applies at {dict(env)}")
            return default(env)
        return case

    evaluate = walk(stmt.expr)
    del walk  # frees the helpers' reference cycle now, not in a GC pass
    return tuple(v for v in signature.variables if v in used), evaluate


def build_document(doc: ModelDocument) -> LoadedModel:
    """Validate a parsed document and construct the runtime model.

    Every equation is checked for totality and output range by build_model:
    exhaustively up to its row bound, by spot checks listed in the model's
    ``unverified_totality`` above it.
    """
    seen: dict[str, VarDecl] = {}
    for decl in doc.decls:
        if decl.name in seen:
            raise DslTypeError(f"variable {decl.name!r} declared twice",
                               decl.line, decl.column)
        if len(set(decl.values)) != len(decl.values):
            raise DslTypeError(f"domain of {decl.name} has duplicate values",
                               decl.line, decl.column)
        seen[decl.name] = decl
    exo = tuple(d.name for d in doc.decls if d.kind == "exo")
    endo = tuple(d.name for d in doc.decls if d.kind == "var")
    ranges = {d.name: Domain(d.values) for d in doc.decls}
    signature = Signature(exo, endo, ranges)

    by_target: dict[str, EqStmt] = {}
    for stmt in doc.equations:
        if stmt.target not in seen:
            raise UnknownIdentifier(f"equation for undeclared {stmt.target!r}",
                                    stmt.line, stmt.column)
        if seen[stmt.target].kind != "var":
            raise DslTypeError(
                f"{stmt.target!r} is exogenous and cannot have an equation",
                stmt.line, stmt.column)
        if stmt.target in by_target:
            raise DslTypeError(f"two equations for {stmt.target!r}",
                               stmt.line, stmt.column)
        by_target[stmt.target] = stmt
    for name in endo:
        if name not in by_target:
            decl = seen[name]
            raise DslTypeError(f"no equation for endogenous {name!r}",
                               decl.line, decl.column)

    mechanisms = [Mechanism.from_function(name,
                                          *_compile(by_target[name], signature))
                  for name in endo]
    try:
        model = build_model(signature, mechanisms, name=doc.name)
    except OutOfRangeOutput as exc:
        stmt = by_target[exc.target]
        raise DslTypeError(str(exc), stmt.line, stmt.column) from None

    allow: fm.Formula | None = None
    if doc.allows:
        allow = fm.conj(*(a.formula for a in doc.allows))
        for stmt in doc.allows:
            try:
                fm.validate_event_formula(model, stmt.formula)
            except CausalityError as exc:
                raise DslTypeError(f"in allow clause: {exc}",
                                   stmt.line, stmt.column) from None

    contexts: dict[str, dict[str, Value]] = {}
    for ctx in doc.contexts:
        if ctx.name in contexts:
            raise DslTypeError(f"two contexts named {ctx.name!r}",
                               ctx.line, ctx.column)
        contexts[ctx.name] = _context(model, ctx.items, f"context {ctx.name}",
                                      ctx.line, ctx.column)

    return LoadedModel(doc, model, allow, contexts)


def _context(model: CausalModel, items: tuple[tuple[str, Value], ...],
             label: str, line: int, column: int) -> dict[str, Value]:
    """``items`` as a context of ``model``, checked by the model's context
    routine; its faults are raised as diagnostics at ``line``:``column``."""
    context = dict(items)
    at = {"line": line, "column": column}
    _check_context(model, context, label,
                   unknown=partial(UnknownIdentifier, **at),
                   outside=partial(DslTypeError, **at),
                   missing=partial(DslTypeError, **at))
    return context


def load_model(text: str) -> LoadedModel:
    return build_document(parse_model(text))


# -- formula entry points ------------------------------------------------------

def _parse_all(text: str, rule, what: str):
    """Parse the whole of ``text`` with one parser rule."""
    parser = _Parser(tokenize(text))
    node = rule(parser)
    if parser.here.kind != "eof":
        parser.fail(f"end of {what}")
    return node


def _checked(formula: fm.Formula, model: CausalModel | None,
             line: int | None = None, column: int | None = None,
             validate=fm.validate_event_formula) -> fm.Formula:
    if model is not None:
        try:
            validate(model, formula)
        except CausalityError as exc:
            raise UnknownIdentifier(str(exc), line, column) from None
    return formula


def parse_event_formula(text: str, model: CausalModel | None = None) -> fm.Formula:
    return _checked(_parse_all(text, _Parser.formula, "formula"), model)


def parse_causal_formula(text: str, model: CausalModel | None = None) -> fm.Formula:
    node = _parse_all(text, lambda p: p.formula(causal=True), "formula")
    return _checked(node, model, validate=fm.validate_causal_formula)


def parse_conjunction(text: str, model: CausalModel | None = None) -> CandidateCause:
    cause = _parse_all(text, _Parser.conjunction, "conjunction")
    _checked(cause.as_formula(), model)
    return cause


def parse_value(text: str) -> Value:
    """One value, as in a domain: an integer or a symbol."""
    return _parse_all(text, _Parser.value, "value")


def parse_assignments(text: str) -> tuple[tuple[str, Value], ...]:
    """``X = v, Y = w, ...`` without braces; the commas are required."""
    seen: set[str] = set()
    return _parse_all(text, lambda p: tuple(p.separated(
        lambda: p.assignment(seen))), "assignments")


# -- queries -------------------------------------------------------------------

def parse_query(text: str, loaded: LoadedModel) -> QueryDocument:
    """Parse one query and type-check it against a loaded model with
    build_query, which reports model faults at the query keyword."""
    parser = _Parser(tokenize(text))
    kind_tok = parser.ident("a query keyword")
    kind = kind_tok.text
    pieces: dict = {}

    if kind == "eval":
        pieces["formula"] = parser.formula(causal=True)
    elif kind in QUERY_OPTIONS:
        if kind != "causes":
            parser.keyword("for" if kind in ("witnesses", "process")
                           else "cause")
            pieces["cause"] = parser.conjunction()
        parser.keyword("of")
        pieces["effect"] = parser.formula()
    else:
        raise DslSyntaxError(
            f"unknown query kind {kind!r}; expected check, causes, witnesses, "
            f"process, eval, or contrast", kind_tok.line, kind_tok.column)
    if kind == "contrast":
        if parser.at_keyword("vs"):
            parser.advance()
            pieces["contrast_mode"] = "consequent"
            pieces["effect_alternative"] = parser.formula()
        elif parser.at_keyword("rather"):
            parser.advance()
            pieces["contrast_mode"] = "antecedent_strong"
            pieces["value_alternative"] = parser.value()
            if parser.at_keyword("weak"):
                parser.advance()
                pieces["contrast_mode"] = "antecedent_weak"
        else:
            parser.fail("'vs' or 'rather'")

    # The context clause and the kind's options, each at most once.
    takes, seen = ("context", *QUERY_OPTIONS[kind]), set()
    while parser.here.kind != "eof":
        if not parser.at_keyword(*takes):
            parser.fail(f"a clause of {kind} queries "
                        f"({', '.join(map(repr, takes))})")
        tok = parser.advance()
        if tok.text in seen:
            raise DslSyntaxError(f"{tok.text!r} clause given twice",
                                 tok.line, tok.column)
        seen.add(tok.text)
        if tok.text == "context":
            if parser.here.kind == "{":
                pieces["context_values"] = parser.assignments()
            else:
                pieces["context_name"] = parser.ident("a context name").text
        elif tok.text == "variant":
            word = parser.ident("updated, legacy, or strong")
            try:
                pieces["variant"] = DefinitionVariant(word.text)
            except ValueError:
                raise DslSyntaxError(f"unknown variant {word.text!r}",
                                     word.line, word.column) from None
        elif tok.text == "max_conjuncts":
            count = parser.expect("int", "a conjunct count")
            pieces["max_conjuncts"] = int(count.text)
        else:  # extended, exclude_self
            pieces[tok.text] = True
    if "context" not in seen:
        parser.fail("a 'context' clause")
    # resolve and type-check against the model
    return build_query(loaded, kind, kind_tok.line, kind_tok.column, **pieces)


def build_query(loaded: LoadedModel, kind: str, line: int | None = None,
                column: int | None = None, **pieces) -> QueryDocument:
    """The one query builder: type-check the parsed ``pieces`` of a query
    (the QueryDocument fields after the model name) against a loaded model
    and return its document.  A named context must be declared, and an
    inline one must pass the model's context check.  Every fault against the
    model is reported at ``line``:``column``, or with no position when they
    are None."""
    doc = QueryDocument(kind, loaded.model.name or "", **pieces)
    model = loaded.model
    if doc.context_name is not None and \
            doc.context_name not in loaded.contexts:
        raise UnknownIdentifier(f"model {model.name!r} declares no context "
                                f"{doc.context_name!r}", line, column)
    if doc.context_values is not None:
        _context(model, doc.context_values, "context", line, column)
    cause = None if doc.cause is None else doc.cause.as_formula()
    for f in (doc.effect, doc.effect_alternative, cause):
        if f is not None:
            _checked(f, model, line, column)
    if doc.formula is not None:
        _checked(doc.formula, model, line, column, fm.validate_causal_formula)
    events = doc.cause.events if doc.cause is not None else ()
    if doc.value_alternative is not None and len(events) == 1 and \
            doc.value_alternative not in model.domain_of(events[0].var):
        raise DslTypeError(f"{doc.value_alternative!r} outside domain of "
                           f"{events[0].var}", line, column)
    return doc


# -- serialization --------------------------------------------------------------

# Printer precedence: each node is parenthesised when printed at a level
# above its own (1 or, 2 and, 3 negation, 4 comparison, 5 sum).
_JUNCTIONS = {fm.Or: (" | ", 1), fm.And: (" & ", 2)}


def formula_text(node: Expr | fm.Formula, level: int = 0) -> str:
    """Concrete syntax for equation expressions and for event and
    counterfactual formulas."""
    if type(node) in _JUNCTIONS:
        sep, own = _JUNCTIONS[type(node)]
        text = sep.join(formula_text(p, own + 1) for p in node.parts)
        return f"({text})" if level > own else text
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, fm.Not):
        if isinstance(node.body, fm.Prim):
            return f"{node.body.var} != {node.body.value}"
        return f"!{formula_text(node.body, 3)}"
    if isinstance(node, Cmp):
        text = (f"{formula_text(node.left, 5)} {node.op} "
                f"{formula_text(node.right, 5)}")
        return f"({text})" if level > 4 else text
    if isinstance(node, Arith):
        text = (f"{formula_text(node.left, 5)} {node.op} "
                f"{formula_text(node.right, 6)}")
        return f"({text})" if level > 5 else text
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(map(formula_text, node.args))})"
    if isinstance(node, IfE):
        text = (f"if {formula_text(node.cond, 1)} then "
                f"{formula_text(node.then)} else {formula_text(node.other)}")
        return f"({text})" if level > 0 else text
    if isinstance(node, CaseE):
        arms = [f"{formula_text(c)} : {formula_text(r)}" for c, r in node.arms]
        if node.default is not None:
            arms.append(f"else : {formula_text(node.default)}")
        return "case { " + ", ".join(arms) + " }"
    if isinstance(node, fm.Prim):
        return f"{node.var} = {node.value}"
    if isinstance(node, fm.Basic):
        iv = ", ".join(f"{v} <- {x}" for v, x in node.intervention)
        brackets = ("<", ">") if node.diamond else ("[", "]")
        return f"{brackets[0]}{iv}{brackets[1]}({formula_text(node.body)})"
    raise TypeError(f"cannot serialize {node!r}")


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text; parsing it back yields a structurally equal document."""
    lines = [f"model {doc.name} {{"]
    for decl in doc.decls:
        values = ", ".join(map(str, decl.values))
        lines.append(f"  {decl.kind} {decl.name} : {{{values}}}")
    for stmt in doc.equations:
        lines.append(f"  eq {stmt.target} = {formula_text(stmt.expr)}")
    for stmt in doc.allows:
        lines.append(f"  allow {formula_text(stmt.formula, level=3)}")
    for ctx in doc.contexts:
        items = ", ".join(f"{v} = {x}" for v, x in ctx.items)
        lines.append(f"  context {ctx.name} {{{items}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def document_from_model(model: CausalModel,
                        allows: tuple[fm.Formula, ...] = (),
                        contexts: Mapping[str, Mapping[str, Value]] | None = None,
                        ) -> ModelDocument:
    """Render a programmatically built model as a document.

    Table mechanisms become exhaustive ``case`` equations, so any desk-scale
    model can round-trip through the text format.
    """
    decls = [VarDecl("exo", v, model.domain_of(v).values)
             for v in model.exogenous]
    decls += [VarDecl("var", v, model.domain_of(v).values)
              for v in model.endogenous]
    equations = []
    for name in model.endogenous:
        mech = model.mechanisms[name]
        if mech.table is None:
            raise DslTypeError(f"mechanism for {name} has no table form")
        if not mech.deps:
            equations.append(EqStmt(name, Lit(mech.table[()])))
            continue
        arms = []
        for key, out in sorted(mech.table.items(),
                               key=lambda kv: tuple(map(repr, kv[0]))):
            cond = fm.conj(*(Cmp("=", Name(d), Lit(v))
                             for d, v in zip(mech.deps, key)))
            arms.append((cond, Lit(out)))
        equations.append(EqStmt(name, CaseE(tuple(arms), None)))
    ctxs = tuple(ContextDecl(name, tuple(values.items()))
                 for name, values in (contexts or {}).items())
    return ModelDocument(model.name or "model", tuple(decls), tuple(equations),
                         tuple(AllowStmt(a) for a in allows), ctxs)
