"""Execute parsed query documents against loaded models.

This is the single dispatch point shared by the command line and the bundled
example suite, so both report identical verdicts for identical queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cause import (
    DEFAULT_MAX_VARS,
    CandidateCause,
    CauseQuery,
    CauseVerdict,
    SearchStats,
    Witness,
    active_processes,
    contrastive_cause,
    enumerate_causes,
    enumerate_witnesses,
    is_actual_cause,
)
from .dsl import LoadedModel, QueryDocument
from .errors import UnknownIdentifier
from .formula import eval_formula
from .model import Value


@dataclass
class QueryOutcome:
    kind: str
    verdict: bool
    cause_verdict: CauseVerdict | None = None
    causes: list[CandidateCause] = dc_field(default_factory=list)
    witnesses: list[Witness] = dc_field(default_factory=list)
    processes: list[tuple[str, ...]] = dc_field(default_factory=list)
    stats: SearchStats = dc_field(default_factory=SearchStats)


def _context_of(loaded: LoadedModel, doc: QueryDocument) -> dict[str, Value]:
    if doc.context_values is not None:
        return dict(doc.context_values)
    if doc.context_name is None:
        raise UnknownIdentifier("query has no context clause", 0, 0)
    return loaded.context(doc.context_name)


def run_query(loaded: LoadedModel, doc: QueryDocument, *,
              max_vars: int = DEFAULT_MAX_VARS) -> QueryOutcome:
    context = _context_of(loaded, doc)
    model = loaded.extended() if doc.extended else loaded.model

    if doc.kind == "check":
        query = CauseQuery(model, context, doc.cause, doc.effect,
                           variant=doc.variant, exclude_self=doc.exclude_self,
                           max_vars=max_vars)
        verdict = is_actual_cause(query)
        return QueryOutcome("check", verdict.overall, cause_verdict=verdict,
                            witnesses=[verdict.witness] if verdict.witness else [],
                            stats=verdict.stats)

    stats = SearchStats()
    if doc.kind == "causes":
        causes = enumerate_causes(model, context, doc.effect,
                                  variant=doc.variant,
                                  max_conjuncts=doc.max_conjuncts,
                                  exclude_self=doc.exclude_self,
                                  max_vars=max_vars, stats=stats)
        return QueryOutcome("causes", bool(causes), causes=causes, stats=stats)

    if doc.kind == "witnesses":
        query = CauseQuery(model, context, doc.cause, doc.effect,
                           variant=doc.variant, max_vars=max_vars)
        witnesses = enumerate_witnesses(query, stats=stats)
        return QueryOutcome("witnesses", bool(witnesses), witnesses=witnesses,
                            stats=stats)

    if doc.kind == "process":
        processes = active_processes(model, context, doc.cause, doc.effect,
                                     variant=doc.variant, max_vars=max_vars,
                                     stats=stats)
        return QueryOutcome("process", bool(processes), processes=processes,
                            stats=stats)

    if doc.kind == "eval":
        value = eval_formula(loaded.model, context, doc.formula)
        return QueryOutcome("eval", value)

    if doc.kind == "contrast":
        query = CauseQuery(model, context, doc.cause, doc.effect,
                           variant=doc.variant, exclude_self=doc.exclude_self,
                           max_vars=max_vars)
        verdict = contrastive_cause(query, doc.contrast_mode,
                                    effect_alternative=doc.effect_alternative,
                                    value_alternative=doc.value_alternative)
        return QueryOutcome("contrast", verdict.overall, cause_verdict=verdict,
                            witnesses=[verdict.witness] if verdict.witness else [],
                            stats=verdict.stats)

    raise UnknownIdentifier(f"unknown query kind {doc.kind!r}", 0, 0)
