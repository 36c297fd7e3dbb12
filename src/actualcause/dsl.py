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
runs to the end of the line.  Equation expressions support value literals,
variable references, ``=``/``!=`` tests yielding 0/1, ``!``/``&``/``|`` on
0/1 values, ``+``/``-``/``min``/``max`` on integer values, ``if c then a else
b``, and ``case { cond : value, ..., else : value }``.  Event formulas used in
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

followed by options in any order: ``variant updated|legacy|strong``,
``extended``, ``exclude_self``, ``max_conjuncts N``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

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
    build_model,
)

RESERVED = {"case", "else", "if", "then", "min", "max"}

_PUNCT = ("<=>", "=>", "<-", "!=", "{", "}", "(", ")", "[", "]",
          ",", ":", "=", "!", "&", "|", "+", "-", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str          # 'ident', 'int', or the punctuation itself
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
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
class NotE:
    body: "Expr"


@dataclass(frozen=True)
class AndE:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class OrE:
    parts: tuple["Expr", ...]


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


Expr = Lit | Name | Cmp | NotE | AndE | OrE | Arith | Call | IfE | CaseE


@dataclass(frozen=True)
class VarDecl:
    kind: str          # 'exo' or 'var'
    name: str
    values: tuple[Value, ...]
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EqStmt:
    target: str
    expr: Expr
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class AllowStmt:
    formula: fm.Formula
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ContextDecl:
    name: str
    items: tuple[tuple[str, Value], ...]
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
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
        return self.nary("|", lambda: self.nary("&", self.expr_not, AndE), OrE)

    def expr_not(self) -> Expr:
        if self.here.kind == "!":
            self.advance()
            return NotE(self.expr_not())
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
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "-":
            self.advance()
            inner = self.expect("int", "integer after '-'")
            return Lit(-int(inner.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            if tok.text in ("min", "max"):
                self.advance()
                self.expect("(", f"'(' after {tok.text}")
                args = [self.expr()]
                while self.here.kind == ",":
                    self.advance()
                    args.append(self.expr())
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
        def f_and():
            return self.nary("&", lambda: self.f_unary(causal), fm.And)
        node = self.nary("|", f_and, fm.Or)
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

    def nary(self, op: str, operand, node):
        """``operand (op operand)*``, wrapped in ``node`` when repeated."""
        parts = [operand()]
        while self.here.kind == op:
            self.advance()
            parts.append(operand())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def interventions(self, closer: str) -> tuple[tuple[str, Value], ...]:
        items: list[tuple[str, Value]] = []
        if self.here.kind == closer:
            self.advance()
            return ()
        while True:
            var = self.ident("a variable name").text
            self.expect("<-", "'<-'")
            items.append((var, self.value()))
            if self.here.kind == ",":
                self.advance()
                continue
            break
        self.expect(closer, repr(closer))
        return tuple(items)

    def assignments(self) -> tuple[tuple[str, Value], ...]:
        """``{ X = v, ... }``; the commas are optional."""
        self.expect("{", "'{'")
        items: list[tuple[str, Value]] = []
        while self.here.kind != "}":
            var = self.ident("a variable name").text
            self.expect("=", "'='")
            items.append((var, self.value()))
            if self.here.kind == ",":
                self.advance()
        self.expect("}", "'}'")
        return tuple(items)

    # -- cause conjunctions (X=x & Y=y ...) --------------------------------

    def conjunction(self) -> CandidateCause:
        events: list[fm.Prim] = []
        while True:
            tok = self.ident("a variable name")
            self.expect("=", "'=' (cause conjuncts are equalities)")
            events.append(fm.Prim(tok.text, self.value()))
            if self.here.kind == "&":
                self.advance()
                continue
            break
        return CandidateCause(tuple(events))


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
            parser.expect(":", "':'")
            parser.expect("{", "'{' opening the domain")
            values = [parser.value()]
            while parser.here.kind == ",":
                parser.advance()
                values.append(parser.value())
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
                                    f"context {name!r}", 0, 0) from None


def _nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression, children left to right before parents."""
    if isinstance(expr, (Cmp, Arith)):
        children: tuple[Expr, ...] = (expr.left, expr.right)
    elif isinstance(expr, NotE):
        children = (expr.body,)
    elif isinstance(expr, (AndE, OrE)):
        children = expr.parts
    elif isinstance(expr, Call):
        children = expr.args
    elif isinstance(expr, IfE):
        children = (expr.cond, expr.then, expr.other)
    elif isinstance(expr, CaseE):
        children = tuple(itertools.chain(*expr.arms))
        children += () if expr.default is None else (expr.default,)
    else:
        children = ()
    for child in children:
        yield from _nodes(child)
    yield expr


class _ExprProgram:
    """Compiled equation: resolved names, dependency list, evaluator."""

    def __init__(self, stmt: EqStmt, signature: Signature):
        self.stmt = stmt
        self.signature = signature
        declared = set(signature.variables)
        symbols = {v for dom in signature.ranges.values() for v in dom.values
                   if isinstance(v, str)}
        self.deps: list[str] = []
        self._resolve(stmt.expr, declared, symbols)

    def _resolve(self, expr: Expr, declared: set[str], symbols: set[str]) -> None:
        for node in _nodes(expr):
            if isinstance(node, Cmp):
                self._static_domain_check(node)
            if not isinstance(node, Name):
                continue
            if node.ident == self.stmt.target:
                raise DslTypeError(
                    f"equation for {self.stmt.target} refers to itself",
                    self.stmt.line, self.stmt.column)
            if node.ident in declared:
                if node.ident not in self.deps:
                    self.deps.append(node.ident)
            elif node.ident not in symbols:
                raise UnknownIdentifier(
                    f"{node.ident!r} is neither a variable nor a domain value",
                    self.stmt.line, self.stmt.column)

    def _static_domain_check(self, cmp: Cmp) -> None:
        """A literal compared against a variable must lie in its domain."""
        pairs = ((cmp.left, cmp.right), (cmp.right, cmp.left))
        declared = set(self.signature.variables)
        for ref, other in pairs:
            if isinstance(ref, Name) and ref.ident in declared and \
                    isinstance(other, Lit):
                if other.value not in self.signature.domain_of(ref.ident):
                    raise DslTypeError(
                        f"{other.value!r} is not in the domain of {ref.ident}",
                        self.stmt.line, self.stmt.column)

    def ordered_deps(self) -> tuple[str, ...]:
        order = {v: i for i, v in enumerate(self.signature.variables)}
        return tuple(sorted(self.deps, key=order.__getitem__))

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return self._eval(self.stmt.expr, env)

    def _type_error(self, message: str) -> DslTypeError:
        return DslTypeError(f"in the equation for {self.stmt.target}: {message}",
                            self.stmt.line, self.stmt.column)

    def _truth(self, expr: Expr, env: Mapping[str, Value]) -> int:
        value = self._eval(expr, env)
        if value not in (0, 1):
            raise self._type_error(
                f"boolean operator applied to non-0/1 value {value!r}")
        return value

    def _int(self, expr: Expr, env: Mapping[str, Value]) -> int:
        value = self._eval(expr, env)
        if not isinstance(value, int):
            raise self._type_error(
                f"arithmetic applied to non-integer value {value!r}")
        return value

    def _eval(self, expr: Expr, env: Mapping[str, Value]) -> Value:
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Name):
            if expr.ident in env:
                return env[expr.ident]
            return expr.ident  # resolved symbol literal
        if isinstance(expr, Cmp):
            same = self._eval(expr.left, env) == self._eval(expr.right, env)
            return int(same) if expr.op == "=" else int(not same)
        if isinstance(expr, NotE):
            return 1 - self._truth(expr.body, env)
        if isinstance(expr, AndE):
            return int(all(self._truth(p, env) for p in expr.parts))
        if isinstance(expr, OrE):
            return int(any(self._truth(p, env) for p in expr.parts))
        if isinstance(expr, Arith):
            left, right = self._int(expr.left, env), self._int(expr.right, env)
            return left + right if expr.op == "+" else left - right
        if isinstance(expr, Call):
            values = [self._int(a, env) for a in expr.args]
            return min(values) if expr.fn == "min" else max(values)
        if isinstance(expr, IfE):
            branch = expr.then if self._truth(expr.cond, env) else expr.other
            return self._eval(branch, env)
        if isinstance(expr, CaseE):
            for cond, result in expr.arms:
                if self._truth(cond, env):
                    return self._eval(result, env)
            if expr.default is None:
                raise self._type_error(f"no case arm applies at {dict(env)}")
            return self._eval(expr.default, env)
        raise self._type_error(f"cannot evaluate {expr!r}")


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

    mechanisms: list[Mechanism] = []
    for name in endo:
        program = _ExprProgram(by_target[name], signature)
        mechanisms.append(Mechanism.from_function(name, program.ordered_deps(),
                                                  program.evaluate))
    try:
        model = build_model(signature, mechanisms, name=doc.name)
    except OutOfRangeOutput as exc:
        stmt = by_target[exc.target]
        raise DslTypeError(str(exc), stmt.line, stmt.column) from None

    allow: fm.Formula | None = None
    if doc.allows:
        parts = tuple(a.formula for a in doc.allows)
        allow = parts[0] if len(parts) == 1 else fm.And(parts)
        for stmt in doc.allows:
            try:
                fm.validate_event_formula(model, stmt.formula)
            except CausalityError as exc:
                raise DslTypeError(f"in allow clause: {exc}",
                                   stmt.line, stmt.column) from None

    contexts: dict[str, dict[str, Value]] = {}
    exo_set = set(exo)
    for ctx in doc.contexts:
        if ctx.name in contexts:
            raise DslTypeError(f"two contexts named {ctx.name!r}",
                               ctx.line, ctx.column)
        values: dict[str, Value] = {}
        for var, value in ctx.items:
            if var not in exo_set:
                raise UnknownIdentifier(
                    f"context {ctx.name} assigns non-exogenous {var!r}",
                    ctx.line, ctx.column)
            if value not in ranges[var]:
                raise DslTypeError(
                    f"context value {value!r} outside domain of {var}",
                    ctx.line, ctx.column)
            values[var] = value
        for var in exo:
            if var not in values:
                raise DslTypeError(
                    f"context {ctx.name} does not assign exogenous {var!r}",
                    ctx.line, ctx.column)
        contexts[ctx.name] = values

    return LoadedModel(doc, model, allow, contexts)


def load_model(text: str) -> LoadedModel:
    return build_document(parse_model(text))


# -- formula entry points ------------------------------------------------------

def _checked_event(formula: fm.Formula, model: CausalModel) -> fm.Formula:
    try:
        fm.validate_event_formula(model, formula)
    except CausalityError as exc:
        raise UnknownIdentifier(str(exc), 0, 0) from None
    return formula


def parse_event_formula(text: str, model: CausalModel | None = None) -> fm.Formula:
    parser = _Parser(tokenize(text))
    node = parser.formula()
    if parser.here.kind != "eof":
        parser.fail("end of formula")
    return _checked_event(node, model) if model is not None else node


def parse_causal_formula(text: str, model: CausalModel | None = None) -> fm.Formula:
    parser = _Parser(tokenize(text))
    node = parser.formula(causal=True)
    if parser.here.kind != "eof":
        parser.fail("end of formula")
    if model is not None:
        try:
            fm.validate_causal_formula(model, node)
        except CausalityError as exc:
            raise UnknownIdentifier(str(exc), 0, 0) from None
    return node


def parse_conjunction(text: str, model: CausalModel | None = None) -> CandidateCause:
    parser = _Parser(tokenize(text))
    cause = parser.conjunction()
    if parser.here.kind != "eof":
        parser.fail("end of conjunction")
    if model is not None:
        _checked_event(cause.as_formula(), model)
    return cause


# -- queries -------------------------------------------------------------------

def parse_query(text: str, loaded: LoadedModel) -> QueryDocument:
    """Parse and type-check one query against a loaded model."""
    parser = _Parser(tokenize(text))
    model = loaded.model
    kind_tok = parser.ident("a query keyword")
    kind = kind_tok.text

    cause = effect = formula = None
    contrast_mode = None
    effect_alternative = None
    value_alternative = None

    if kind == "check":
        parser.keyword("cause")
        cause = parser.conjunction()
        parser.keyword("of")
        effect = parser.formula()
    elif kind == "causes":
        parser.keyword("of")
        effect = parser.formula()
    elif kind in ("witnesses", "process"):
        parser.keyword("for")
        cause = parser.conjunction()
        parser.keyword("of")
        effect = parser.formula()
    elif kind == "eval":
        formula = parser.formula(causal=True)
    elif kind == "contrast":
        parser.keyword("cause")
        cause = parser.conjunction()
        parser.keyword("of")
        effect = parser.formula()
        if parser.at_keyword("vs"):
            parser.advance()
            contrast_mode = "consequent"
            effect_alternative = parser.formula()
        elif parser.at_keyword("rather"):
            parser.advance()
            contrast_mode = "antecedent_strong"
            value_alternative = parser.value()
            if parser.at_keyword("weak"):
                parser.advance()
                contrast_mode = "antecedent_weak"
        else:
            parser.fail("'vs' or 'rather'")
    else:
        raise DslSyntaxError(
            f"unknown query kind {kind!r}; expected check, causes, witnesses, "
            f"process, eval, or contrast", kind_tok.line, kind_tok.column)

    context_name = None
    context_values = None
    variant = DefinitionVariant.UPDATED
    extended = False
    exclude_self = False
    max_conjuncts = 1
    while parser.here.kind != "eof":
        tok = parser.ident("'context' or an option keyword")
        if tok.text == "context":
            if context_name is not None or context_values is not None:
                raise DslSyntaxError("duplicate context clause",
                                     tok.line, tok.column)
            if parser.here.kind == "{":
                context_values = parser.assignments()
            else:
                context_name = parser.ident("a context name").text
        elif tok.text == "variant":
            word = parser.ident("updated, legacy, or strong")
            try:
                variant = DefinitionVariant(word.text)
            except ValueError:
                raise DslSyntaxError(f"unknown variant {word.text!r}",
                                     word.line, word.column) from None
        elif tok.text == "extended":
            extended = True
        elif tok.text == "exclude_self":
            exclude_self = True
        elif tok.text == "max_conjuncts":
            count = parser.expect("int", "a conjunct count")
            max_conjuncts = int(count.text)
        else:
            raise DslSyntaxError(f"unknown option {tok.text!r}",
                                 tok.line, tok.column)
    if context_name is None and context_values is None:
        parser.fail("a 'context' clause")

    # resolve and type-check against the model
    if context_name is not None and context_name not in loaded.contexts:
        raise UnknownIdentifier(f"model {model.name!r} declares no context "
                                f"{context_name!r}", kind_tok.line,
                                kind_tok.column)
    if context_values is not None:
        exo = set(model.exogenous)
        for var, value in context_values:
            if var not in exo:
                raise UnknownIdentifier(f"{var!r} is not exogenous",
                                        kind_tok.line, kind_tok.column)
            if value not in model.domain_of(var):
                raise DslTypeError(f"{value!r} outside domain of {var}",
                                   kind_tok.line, kind_tok.column)
    for f in (effect, effect_alternative):
        if f is not None:
            _checked_event(f, model)
    if cause is not None:
        _checked_event(cause.as_formula(), model)
    if formula is not None:
        try:
            fm.validate_causal_formula(model, formula)
        except CausalityError as exc:
            raise UnknownIdentifier(str(exc), kind_tok.line,
                                    kind_tok.column) from None
    if value_alternative is not None and cause is not None:
        if len(cause.events) == 1 and \
                value_alternative not in model.domain_of(cause.events[0].var):
            raise DslTypeError(
                f"{value_alternative!r} outside domain of {cause.events[0].var}",
                kind_tok.line, kind_tok.column)

    return QueryDocument(kind=kind, model_name=model.name or "",
                         context_name=context_name,
                         context_values=context_values, cause=cause,
                         effect=effect, formula=formula,
                         contrast_mode=contrast_mode,
                         effect_alternative=effect_alternative,
                         value_alternative=value_alternative,
                         variant=variant, extended=extended,
                         exclude_self=exclude_self,
                         max_conjuncts=max_conjuncts)


# -- serialization --------------------------------------------------------------

def _value_text(value: Value) -> str:
    return str(value)


_LEVEL = {"or": 1, "and": 2, "not": 3, "cmp": 4, "add": 5, "atom": 6}


def _expr_text(expr: Expr, level: int = 0) -> str:
    if isinstance(expr, Lit):
        return _value_text(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, OrE):
        text = " | ".join(_expr_text(p, _LEVEL["or"] + 1) for p in expr.parts)
        return f"({text})" if level > _LEVEL["or"] else text
    if isinstance(expr, AndE):
        text = " & ".join(_expr_text(p, _LEVEL["and"] + 1) for p in expr.parts)
        return f"({text})" if level > _LEVEL["and"] else text
    if isinstance(expr, NotE):
        return f"!{_expr_text(expr.body, _LEVEL['not'])}"
    if isinstance(expr, Cmp):
        text = (f"{_expr_text(expr.left, _LEVEL['cmp'] + 1)} {expr.op} "
                f"{_expr_text(expr.right, _LEVEL['cmp'] + 1)}")
        return f"({text})" if level > _LEVEL["cmp"] else text
    if isinstance(expr, Arith):
        text = (f"{_expr_text(expr.left, _LEVEL['add'])} {expr.op} "
                f"{_expr_text(expr.right, _LEVEL['add'] + 1)}")
        return f"({text})" if level > _LEVEL["add"] else text
    if isinstance(expr, Call):
        args = ", ".join(_expr_text(a) for a in expr.args)
        return f"{expr.fn}({args})"
    if isinstance(expr, IfE):
        text = (f"if {_expr_text(expr.cond, _LEVEL['or'])} "
                f"then {_expr_text(expr.then)} else {_expr_text(expr.other)}")
        return f"({text})" if level > 0 else text
    if isinstance(expr, CaseE):
        arms = [f"{_expr_text(c)} : {_expr_text(r)}" for c, r in expr.arms]
        if expr.default is not None:
            arms.append(f"else : {_expr_text(expr.default)}")
        return "case { " + ", ".join(arms) + " }"
    raise TypeError(f"cannot serialize {expr!r}")


def formula_text(formula: fm.Formula, level: int = 0) -> str:
    """Concrete syntax for event and counterfactual formulas."""
    if isinstance(formula, fm.Prim):
        return f"{formula.var} = {_value_text(formula.value)}"
    if isinstance(formula, fm.Not):
        if isinstance(formula.body, fm.Prim):
            body = formula.body
            return f"{body.var} != {_value_text(body.value)}"
        return f"!({formula_text(formula.body)})"
    if isinstance(formula, fm.And):
        text = " & ".join(formula_text(p, 2) for p in formula.parts)
        return f"({text})" if level > 1 else text
    if isinstance(formula, fm.Or):
        text = " | ".join(formula_text(p, 1) for p in formula.parts)
        return f"({text})" if level > 0 else text
    if isinstance(formula, fm.Basic):
        iv = ", ".join(f"{v} <- {_value_text(x)}" for v, x in formula.intervention)
        brackets = ("<", ">") if formula.diamond else ("[", "]")
        return f"{brackets[0]}{iv}{brackets[1]}({formula_text(formula.body)})"
    raise TypeError(f"cannot serialize {formula!r}")


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text; parsing it back yields a structurally equal document."""
    lines = [f"model {doc.name} {{"]
    for decl in doc.decls:
        values = ", ".join(_value_text(v) for v in decl.values)
        lines.append(f"  {decl.kind} {decl.name} : {{{values}}}")
    for stmt in doc.equations:
        lines.append(f"  eq {stmt.target} = {_expr_text(stmt.expr)}")
    for stmt in doc.allows:
        lines.append(f"  allow {formula_text(stmt.formula, level=2)}")
    for ctx in doc.contexts:
        items = ", ".join(f"{v} = {_value_text(x)}" for v, x in ctx.items)
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
            raise DslTypeError(f"mechanism for {name} has no table form", 0, 0)
        if not mech.deps:
            equations.append(EqStmt(name, Lit(mech.table[()])))
            continue
        arms = []
        for key, out in sorted(mech.table.items(),
                               key=lambda kv: tuple(map(repr, kv[0]))):
            cond_parts = tuple(Cmp("=", Name(d), Lit(v))
                               for d, v in zip(mech.deps, key))
            cond = cond_parts[0] if len(cond_parts) == 1 else AndE(cond_parts)
            arms.append((cond, Lit(out)))
        equations.append(EqStmt(name, CaseE(tuple(arms), None)))
    ctxs = tuple(ContextDecl(name, tuple(values.items()))
                 for name, values in (contexts or {}).items())
    return ModelDocument(model.name or "model", tuple(decls), tuple(equations),
                         tuple(AllowStmt(a) for a in allows), ctxs)
