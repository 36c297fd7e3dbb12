"""Command line front end over .hpc model files.

Exit codes: 0 when the verdict is true (or the result list is nonempty),
1 when false or empty, 2 for usage errors including an exceeded variable cap,
3 for unreadable, unparsable, or semantically invalid inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .cause import DEFAULT_MAX_VARS, DefinitionVariant
from .dsl import (
    LoadedModel,
    QueryDocument,
    load_model,
    parse_assignments,
    parse_causal_formula,
    parse_conjunction,
    parse_event_formula,
    parse_value,
)
from .errors import CausalityError, SearchSpaceTooLarge
from .formula import eval_trace
from .queries import QueryOutcome, _context_of, run_query

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actualcause",
        description="Check and enumerate actual causes in structural causal "
                    "models written in the .hpc text format.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, cause=False, effect=False,
               formula=False):
        p.add_argument("model", help="path to a .hpc model file")
        p.add_argument("--context", required=True,
                       help="context name, or inline assignments like 'U=u11'")
        if cause:
            p.add_argument("--cause", required=True,
                           help="conjunction such as 'ML1=1' or 'A=1 & B=1'")
        if effect:
            p.add_argument("--effect", required=True,
                           help="event formula such as 'FB=1' or 'F=1 | F=2'")
        if formula:
            p.add_argument("--formula", required=True,
                           help="counterfactual formula such as '[L<-0](F=0)'")
        p.add_argument("--definition",
                       choices=sorted(v.value for v in DefinitionVariant),
                       default="updated", help="cause definition variant")
        p.add_argument("--extended", action="store_true",
                       help="activate the model's allow clauses")
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS,
                       help="refuse models with more endogenous variables")

    p = sub.add_parser("check", help="decide one cause/effect query")
    common(p, cause=True, effect=True)
    p.add_argument("--exclude-self", action="store_true",
                   help="reject causes that logically entail the effect")

    p = sub.add_parser("causes", help="enumerate causes of an effect")
    common(p, effect=True)
    p.add_argument("--exclude-self", action="store_true")
    p.add_argument("--max-conjuncts", type=int, default=1)

    p = sub.add_parser("witnesses", help="enumerate all AC2 witnesses")
    common(p, cause=True, effect=True)

    p = sub.add_parser("process", help="enumerate minimal causal process sets")
    common(p, cause=True, effect=True)

    p = sub.add_parser("eval", help="evaluate a counterfactual formula")
    common(p, formula=True)
    p.add_argument("--trace", action="store_true",
                   help="show the solved world of each intervention")

    p = sub.add_parser("contrast", help="contrastive cause queries")
    common(p, cause=True, effect=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--against",
                       help="alternative outcome formula (consequent contrast)")
    group.add_argument("--rather",
                       help="alternative cause value (antecedent contrast)")
    p.add_argument("--weak", action="store_true",
                   help="with --rather: only require the alternative to pass "
                            "the no-side-effect clause")
    return parser


def _load(path: str) -> LoadedModel:
    with open(path, "r", encoding="utf-8") as handle:
        return load_model(handle.read())


def _document(args: argparse.Namespace, loaded: LoadedModel) -> QueryDocument:
    model = loaded.model
    context_name = None
    context_values = None
    if "=" in args.context:
        context_values = parse_assignments(args.context)
    else:
        context_name = args.context.strip()
        loaded.context(context_name)  # fail early with a clear message

    kind = args.command
    cause = effect = formula = None
    contrast_mode = None
    effect_alternative = None
    value_alternative = None
    if getattr(args, "cause", None):
        cause = parse_conjunction(args.cause, model)
    if getattr(args, "effect", None):
        effect = parse_event_formula(args.effect, model)
    if getattr(args, "formula", None):
        formula = parse_causal_formula(args.formula, model)
    if kind == "contrast":
        if args.against is not None:
            contrast_mode = "consequent"
            effect_alternative = parse_event_formula(args.against, model)
        else:
            contrast_mode = "antecedent_weak" if args.weak else "antecedent_strong"
            value_alternative = parse_value(args.rather)

    return QueryDocument(kind=kind, model_name=model.name or "",
                         context_name=context_name,
                         context_values=context_values,
                         cause=cause, effect=effect, formula=formula,
                         contrast_mode=contrast_mode,
                         effect_alternative=effect_alternative,
                         value_alternative=value_alternative,
                         variant=DefinitionVariant(args.definition),
                         extended=args.extended,
                         exclude_self=getattr(args, "exclude_self", False),
                         max_conjuncts=getattr(args, "max_conjuncts", 1))


def _witness_json(witness) -> dict:
    return {
        "w": dict(zip(witness.w_set, witness.w_prime)),
        "x_prime": list(witness.x_prime),
        "z_star": dict(witness.z_star),
    }


def _report_json(outcome: QueryOutcome, wall_ms: float) -> str:
    verdict = outcome.cause_verdict
    clauses = {}
    if verdict is not None:
        clauses = {"ac1": verdict.ac1, "ac2": verdict.ac2, "ac3": verdict.ac3}
        if verdict.ac2c is not None:
            clauses["ac2c"] = verdict.ac2c
    payload = {
        "command": outcome.kind,
        "verdict": outcome.verdict,
        "clauses": clauses,
        "causes": [str(c) for c in outcome.causes],
        "witnesses": [_witness_json(w) for w in outcome.witnesses],
        "processes": [list(z) for z in outcome.processes],
        "stats": {
            "partitions_examined": outcome.stats.partitions_examined,
            "settings_examined": outcome.stats.settings_examined,
            "wall_ms": round(wall_ms, 3),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _witness_text(witness) -> str:
    w_text = ", ".join(f"{v}={x}" for v, x in zip(witness.w_set,
                                                   witness.w_prime)) or "(empty)"
    x_text = ", ".join(str(x) for x in witness.x_prime)
    return f"W = {{{w_text}}}  x' = ({x_text})"


def _clause_line(label: str, value) -> str:
    if value is None:
        return f"{label}: not evaluated"
    return f"{label}: {'pass' if value else 'fail'}"


def _report_text(outcome: QueryOutcome, wall_ms: float) -> list[str]:
    lines: list[str] = []
    verdict = outcome.cause_verdict
    if verdict is not None:
        lines.append(_clause_line("AC1", verdict.ac1))
        lines.append(_clause_line("AC2", verdict.ac2))
        if verdict.ac2c is not None:
            lines.append(_clause_line("AC2(c)", verdict.ac2c))
        lines.append(_clause_line("AC3", verdict.ac3))
        if verdict.ac3_violator:
            sub = " & ".join(f"{e.var}={e.value}" for e in verdict.ac3_violator)
            lines.append(f"  minimality violated by sub-conjunction {sub}")
        if verdict.self_entailed:
            lines.append("  rejected: the cause logically entails the effect")
        if verdict.witness is not None:
            w = verdict.witness
            lines.append(f"witness: {_witness_text(w)}  "
                         f"Z = {{{', '.join(w.z_vars())}}}")
    if outcome.kind == "causes":
        if outcome.causes:
            lines.extend(f"cause: {c}" for c in outcome.causes)
        else:
            lines.append("no causes found")
    if outcome.kind == "witnesses":
        lines.extend(f"witness: {_witness_text(w)}" for w in outcome.witnesses)
        if not outcome.witnesses:
            lines.append("no witnesses")
    if outcome.kind == "process":
        for z in outcome.processes:
            lines.append("process: {" + ", ".join(z) + "}")
    lines.append(f"verdict: {'true' if outcome.verdict else 'false'}")
    lines.append(f"stats: {outcome.stats.partitions_examined} partitions, "
                 f"{outcome.stats.settings_examined} settings, "
                 f"{wall_ms:.1f} ms")
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        loaded = _load(args.model)
    except OSError as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return 3
    except CausalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        doc = _document(args, loaded)
        started = time.perf_counter()
        outcome = run_query(loaded, doc, max_vars=args.max_vars)
        wall_ms = (time.perf_counter() - started) * 1000.0
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.as_json:
        print(_report_json(outcome, wall_ms))
    else:
        for line in _report_text(outcome, wall_ms):
            print(line)
        if getattr(args, "trace", False) and doc.formula is not None:
            for iv, sol in eval_trace(loaded.model, _context_of(loaded, doc),
                                      doc.formula):
                iv_text = ", ".join(f"{v}<-{x}" for v, x in iv.items()) or "(none)"
                sol_text = ", ".join(f"{v}={sol[v]}" for v in sol)
                print(f"trace: [{iv_text}] -> {sol_text}")
    return 0 if outcome.verdict else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
