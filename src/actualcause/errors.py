"""Exception taxonomy for model construction, evaluation, and the text format.

Everything raised on purpose by this package derives from CausalityError, so
callers can catch one base class at an API boundary.
"""

from __future__ import annotations


class CausalityError(Exception):
    """Base class for all errors raised by this package."""


# -- model construction / validation ---------------------------------------

class DuplicateMechanism(CausalityError):
    """Two mechanisms were supplied for the same endogenous variable."""


class MissingMechanism(CausalityError):
    """An endogenous variable has no mechanism, or a rule table lacks a row."""


class OutOfRangeOutput(CausalityError):
    """A mechanism produced a value outside its target's declared domain."""

    def __init__(self, message: str, target: str | None = None,
                 inputs: dict | None = None):
        super().__init__(message)
        self.target = target
        self.inputs = inputs


class UndeclaredDependency(CausalityError):
    """A mechanism references a variable that is not in the signature."""


class OutOfRangeValue(CausalityError):
    """A value assignment lies outside the variable's declared domain."""


class UnknownVariable(CausalityError):
    """A variable name does not resolve against the signature."""


class NotRecursive(CausalityError):
    """Operation requires an acyclic model; use solve_all / eval_nonrecursive."""


class NotASolution(CausalityError, ValueError):
    """A designated actual world does not solve the model's equations."""


class SearchSpaceTooLarge(CausalityError):
    """An exhaustive enumeration would exceed its configured cap."""


class InvalidBound(CausalityError):
    """A search bound, such as a cause's conjunct width, is below 1."""


class DisallowedActualWorld(CausalityError):
    """The solved actual world violates the model's allowable-settings rule."""


class EffectNotActual(CausalityError):
    """Cause enumeration requires the effect to hold in the actual world."""


class UnknownVariant(CausalityError):
    """A definition variant is neither a DefinitionVariant nor the value of
    one."""


class NoCause(CausalityError):
    """Process enumeration requires the candidate to be a weak cause first."""


class NotContrastive(CausalityError):
    """The two contrasted effect formulas are jointly satisfiable."""


class UnknownExample(CausalityError):
    """No bundled example is registered under the requested key."""


# -- text format ------------------------------------------------------------

class DslError(CausalityError):
    """Base for parse-time diagnostics, at a line and column if any."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        super().__init__(message if line is None
                         else f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class DslSyntaxError(DslError):
    """Malformed input; the message names the expected tokens."""


class DslTypeError(DslError):
    """Well-formed input with a value, domain, or operator type violation."""


class UnknownIdentifier(DslError):
    """An identifier resolves to neither a declared variable nor a value."""
