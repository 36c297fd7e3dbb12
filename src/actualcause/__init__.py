"""Finite structural causal models and actual-cause checking.

The package splits into model construction and solving (``model``), event and
counterfactual formulas (``formula``), the cause checker with its definition
variants (``cause``), an independent brute-force checker (``oracle``), the
.hpc text format (``dsl``), query execution (``queries``), a command line
(``cli``), and a corpus of worked examples with expected verdicts
(``corpus``).
"""

from .cause import (
    CandidateCause,
    CauseQuery,
    CauseVerdict,
    DefinitionVariant,
    SearchStats,
    Witness,
    active_processes,
    cause_of,
    classify_contributory,
    contrastive_cause,
    enumerate_causes,
    enumerate_witnesses,
    is_actual_cause,
    is_strong_cause,
    is_weak_cause,
)
from .errors import CausalityError
from .formula import (
    And,
    Basic,
    Not,
    Or,
    Prim,
    conj,
    disj,
    eval_event,
    eval_formula,
    eval_nonrecursive,
    neg,
    p,
)
from .model import (
    CausalModel,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Signature,
    all_contexts,
    build_model,
    check_fixed_point,
    descendants,
    domain,
    is_recursive,
    solve,
    solve_all,
    submodel,
)
from .dsl import (
    LoadedModel,
    ModelDocument,
    QueryDocument,
    document_from_model,
    load_model,
    parse_causal_formula,
    parse_conjunction,
    parse_event_formula,
    parse_model,
    parse_query,
    serialize_model,
)
from .queries import QueryOutcome, run_query

__all__ = [name for name in dir() if not name.startswith("_")]
