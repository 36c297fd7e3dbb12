"""Command line front end over .hpc model files.

Exit codes: 0 when the verdict is true (or the result list is nonempty),
1 when false or empty, 2 for usage errors including an exceeded variable cap,
3 for unreadable, unparsable, or semantically invalid inputs, and 141 when
the reader of the output closes it early (as a shell reports SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from .cause import DEFAULT_MAX_VARS, DefinitionVariant
from .dsl import (
    QUERY_OPTIONS,
    build_query,
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

# Each query argument: the QueryDocument field it fills, the grammar rule
# that parses it alone (so a syntax error's position is relative to the
# argument) and its help; build_query then checks the pieces against the model.
_ARGUMENTS = {
    "cause": ("cause", parse_conjunction,
              "conjunction such as 'ML1=1' or 'A=1 & B=1'"),
    "effect": ("effect", parse_event_formula,
               "event formula such as 'FB=1' or 'F=1 | F=2'"),
    "formula": ("formula", parse_causal_formula,
                "counterfactual formula such as '[L<-0](F=0)'"),
    "against": ("effect_alternative", parse_event_formula,
                "alternative outcome formula (consequent contrast)"),
    "rather": ("value_alternative", parse_value,
               "alternative cause value (antecedent contrast)"),
}

# Each query option's flag, help and settings; a subcommand has those of its
# kind (dsl.QUERY_OPTIONS), and a flag not given leaves the document default.
_OPTION_FLAGS = {
    "variant": ("--definition", "cause definition variant",
                {"choices": sorted(v.value for v in DefinitionVariant)}),
    "extended": ("--extended", "activate the model's allow clauses",
                 {"action": "store_true"}),
    "exclude_self": ("--exclude-self",
                     "reject causes that logically entail the effect",
                     {"action": "store_true"}),
    "max_conjuncts": ("--max-conjuncts",
                      "largest number of conjuncts in a cause", {"type": int}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actualcause",
        description="Check and enumerate actual causes in structural causal "
                    "models written in the .hpc text format.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *required: str):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="path to a .hpc model file")
        p.add_argument("--context", required=True,
                       help="context name, or inline assignments like 'U=u11'")
        for argument in required:
            p.add_argument(f"--{argument}", required=True,
                           help=_ARGUMENTS[argument][2])
        for option in QUERY_OPTIONS[name]:
            flag, text, settings = _OPTION_FLAGS[option]
            p.add_argument(flag, dest=option, default=argparse.SUPPRESS,
                           help=text, **settings)
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS,
                       help="refuse models with more endogenous variables")
        return p

    command("check", "decide one cause/effect query", "cause", "effect")
    command("causes", "enumerate causes of an effect", "effect")
    command("witnesses", "enumerate all AC2 witnesses", "cause", "effect")
    command("process", "enumerate minimal causal process sets", "cause",
            "effect")
    p = command("eval", "evaluate a counterfactual formula", "formula")
    p.add_argument("--trace", action="store_true",
                   help="show the solved world of each intervention")
    p = command("contrast", "contrastive cause queries", "cause", "effect")
    group = p.add_mutually_exclusive_group(required=True)
    for argument in ("against", "rather"):
        group.add_argument(f"--{argument}", help=_ARGUMENTS[argument][2])
    p.add_argument("--weak", action="store_true",
                   help="with --rather: only require the alternative to pass "
                            "the no-side-effect clause")
    return parser


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
        if not outcome.processes:
            lines.append("no processes")
    lines.append(f"verdict: {'true' if outcome.verdict else 'false'}")
    lines.append(f"stats: {outcome.stats.partitions_examined} partitions, "
                 f"{outcome.stats.settings_examined} settings, "
                 f"{wall_ms:.1f} ms")
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "weak", False) and args.rather is None:
            parser.error("contrast: --weak needs --rather")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            loaded = load_model(handle.read())
        if "=" in args.context:
            pieces = {"context_values": parse_assignments(args.context)}
        else:
            pieces = {"context_name": args.context.strip()}
        for name, (field, rule, _) in _ARGUMENTS.items():
            if getattr(args, name, None) is not None:
                pieces[field] = rule(getattr(args, name))
        if args.command == "contrast":
            pieces["contrast_mode"] = (
                "consequent" if args.against is not None
                else "antecedent_weak" if args.weak else "antecedent_strong")
        options = QUERY_OPTIONS[args.command]  # only those given are set
        pieces.update((k, v) for k, v in vars(args).items() if k in options)
        if "variant" in pieces:
            pieces["variant"] = DefinitionVariant(pieces["variant"])
        doc = build_query(loaded, args.command, **pieces)
        started = time.perf_counter()
        outcome = run_query(loaded, doc, max_vars=args.max_vars)
        wall_ms = (time.perf_counter() - started) * 1000.0
    except OSError as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return 3
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
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:  # no traceback, and no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
