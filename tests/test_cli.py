from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actualcause
from actualcause.cli import main
from actualcause.corpus import example_text
from actualcause.dsl import load_model, parse_query
from actualcause.errors import (
    DslSyntaxError,
    DslTypeError,
    UnknownIdentifier,
)
from actualcause.queries import run_query
from conftest import corpus_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_verdict_exits_zero_and_names_the_witness(self, capsys):
        code, out, _ = run(capsys, "check", corpus_path("arson_disjunctive"),
                           "--context", "u11", "--cause", "ML1=1",
                           "--effect", "FB=1")
        assert code == 0
        assert "W = {ML2=0}" in out
        assert "verdict: true" in out

    def test_false_verdict_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "BT=1",
                           "--effect", "BS=1")
        assert code == 1
        assert "verdict: false" in out

    def test_missing_effect_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", corpus_path("rock_refined"),
                         "--context", "both", "--cause", "BT=1")
        assert code == 2

    def test_unreadable_model_is_exit_three(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/file.hpc",
                           "--context", "u11", "--cause", "A=1",
                           "--effect", "B=1")
        assert code == 3
        assert "cannot read model" in err

    def test_unknown_variable_is_exit_three(self, capsys):
        code, _, err = run(capsys, "check", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "NOPE=1",
                           "--effect", "BS=1")
        assert code == 3

    def test_variable_cap_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", corpus_path("noise_bottle"),
                           "--context", "noisy", "--cause", "N=1",
                           "--effect", "BS3=1", "--max-vars", "4")
        assert code == 2
        assert "max_vars" in err

    def test_variable_cap_below_one_is_exit_three(self, capsys):
        for cap in ("0", "-1"):
            code, out, err = run(capsys, "witnesses",
                                 corpus_path("rock_refined"), "--context",
                                 "both", "--cause", "ST=1", "--effect", "BS=1",
                                 "--max-vars", cap)
            assert code == 3 and not out, cap
            assert err == f"error: max_vars {cap} is below 1\n", cap

    def test_definition_flag_switches_variants(self, capsys):
        code, _, _ = run(capsys, "check", corpus_path("prisoner"),
                         "--context", "base", "--cause", "A=1",
                         "--effect", "D=1")
        assert code == 1
        code, _, _ = run(capsys, "check", corpus_path("prisoner"),
                         "--context", "base", "--cause", "A=1",
                         "--effect", "D=1", "--definition", "legacy")
        assert code == 0

    def test_extended_flag_activates_allow_clauses(self, capsys):
        code, _, _ = run(capsys, "check", corpus_path("loanshark"),
                         "--context", "accident", "--cause", "FS=1",
                         "--effect", "FF=1")
        assert code == 0
        code, _, _ = run(capsys, "check", corpus_path("loanshark"),
                         "--context", "accident", "--cause", "FS=1",
                         "--effect", "FF=1", "--extended")
        assert code == 1

    def test_inline_context(self, capsys):
        code, _, _ = run(capsys, "check", corpus_path("arson_disjunctive"),
                         "--context", "U=u10", "--cause", "ML1=1",
                         "--effect", "FB=1")
        assert code == 0

    def test_inline_context_needs_commas(self, capsys):
        args = ("check", corpus_path("prisoner"), "--cause", "C=1",
                "--effect", "D=1", "--context")
        code, _, _ = run(capsys, *args, "UA=1, UB=0 ,UC=1")
        assert code == 0
        code, _, err = run(capsys, *args, "UA=1 UB=0 UC=1")
        assert code == 3
        assert err.startswith("error:")

    def test_inline_context_assigning_a_variable_twice_is_exit_three(
            self, capsys):
        code, out, err = run(capsys, "check", corpus_path("arson_disjunctive"),
                             "--context", "U=u10, U=u11", "--cause", "ML1=1",
                             "--effect", "FB=1")
        assert (code, out) == (3, "")
        assert err == "error: 1:8: 'U' is assigned twice\n"

    def test_malformed_values_are_exit_three(self, capsys):
        model = corpus_path("arson_disjunctive")
        for argv in (("check", model, "--context", "u11",
                      "--cause", "ML1=¹", "--effect", "FB=1"),
                     ("check", model, "--context", "U=--1",
                      "--cause", "ML1=1", "--effect", "FB=1"),
                     ("contrast", model, "--context", "u11",
                      "--cause", "ML1=1", "--effect", "FB=1",
                      "--rather", "²")):
            code, _, err = run(capsys, *argv)
            assert code == 3, argv
            assert err.startswith("error:"), argv


class TestJson:
    def test_schema_and_agreement_with_text(self, capsys):
        args = ("check", corpus_path("arson_disjunctive"), "--context", "u11",
                "--cause", "ML1=1", "--effect", "FB=1")
        code_text, out_text, _ = run(capsys, *args)
        code_json, out_json, _ = run(capsys, *args, "--json")
        payload = json.loads(out_json)
        assert code_text == code_json == 0
        assert payload["verdict"] is ("verdict: true" in out_text)
        assert set(payload) == {"command", "verdict", "clauses", "causes",
                                "witnesses", "processes", "stats"}
        assert payload["clauses"] == {"ac1": True, "ac2": True, "ac3": True}
        assert payload["witnesses"][0]["w"] == {"ML2": 0}
        stats = payload["stats"]
        assert set(stats) == {"partitions_examined", "settings_examined",
                              "wall_ms"}

    def test_schema_is_stable_across_subcommands(self, capsys):
        _, out, _ = run(capsys, "causes", corpus_path("doctor"),
                        "--context", "monday",
                        "--effect", "BMC=0 | BMC=1 | BMC=2", "--json")
        payload = json.loads(out)
        assert set(payload) == {"command", "verdict", "clauses", "causes",
                                "witnesses", "processes", "stats"}
        assert "TT=0" in payload["causes"]
        assert "MT=1" not in payload["causes"]

    def test_enumerating_commands_report_their_search(self, capsys):
        model = corpus_path("rock_refined")
        for argv in (("causes", model, "--effect", "BS=1"),
                     ("witnesses", model, "--cause", "ST=1", "--effect", "BS=1"),
                     ("process", model, "--cause", "ST=1", "--effect", "BS=1")):
            _, out, _ = run(capsys, *argv, "--context", "both", "--json")
            stats = json.loads(out)["stats"]
            assert stats["partitions_examined"] > 0, argv[0]
            assert stats["settings_examined"] > 0, argv[0]

    def test_text_and_json_verdicts_agree_on_every_bundled_query(self, capsys):
        from actualcause.corpus import all_golden_rows
        from actualcause.dsl import formula_text, parse_query
        from actualcause.corpus import load_example
        variants = {"updated": [], "legacy": ["--definition", "legacy"],
                    "strong": ["--definition", "strong"]}
        for row in all_golden_rows():
            loaded = load_example(row.key).loaded
            doc = parse_query(row.query, loaded)
            if doc.kind == "check":
                argv = ["check", corpus_path(row.key),
                        "--context", doc.context_name,
                        "--cause", str(doc.cause),
                        "--effect", row.query.split(" of ", 1)[1]
                                             .split(" context ")[0]]
                argv += variants[doc.variant.value]
                if doc.extended:
                    argv.append("--extended")
            elif doc.kind == "eval":
                argv = ["eval", corpus_path(row.key),
                        "--context", doc.context_name,
                        "--formula", formula_text(doc.formula)]
            else:
                continue
            code_text, out_text, _ = run(capsys, *argv)
            code_json, out_json, _ = run(capsys, *argv, "--json")
            payload = json.loads(out_json)
            assert code_text == code_json
            assert payload["verdict"] is ("verdict: true" in out_text)
            assert payload["verdict"] is (code_text == 0)


class TestOtherCommands:
    def test_causes_exit_codes(self, capsys):
        code, out, _ = run(capsys, "causes", corpus_path("rock_refined"),
                           "--context", "both", "--effect", "BS=1",
                           "--exclude-self")
        assert code == 0
        assert "cause: ST=1" in out and "cause: SH=1" in out
        code, out, _ = run(capsys, "causes", corpus_path("rock_refined"),
                           "--context", "both", "--effect", "BS=1 | BS=0")
        assert code == 1
        assert "no causes found" in out and "verdict: false" in out
        code, _, err = run(capsys, "causes", corpus_path("doctor"),
                           "--context", "monday", "--effect", "BMC=3")
        assert code == 3
        assert "actual world" in err

    def test_causes_width_below_one_is_exit_three(self, capsys):
        for width in ("0", "-1"):
            code, out, err = run(capsys, "causes", corpus_path("rock_refined"),
                                 "--context", "both", "--effect", "BS=1",
                                 "--max-conjuncts", width)
            assert code == 3 and not out, width
            assert err.startswith("error:") and "max_conjuncts" in err

    def test_repeated_cause_or_clamp_variable_is_exit_three_at_its_token(
            self, capsys):
        model = corpus_path("rock_refined")
        code, out, err = run(capsys, "check", model, "--context", "both",
                             "--cause", "ST=1 & ST=1", "--effect", "BS=1")
        assert (code, out) == (3, "")
        assert err == "error: 1:8: 'ST' is assigned twice\n"
        code, out, err = run(capsys, "eval", model, "--context", "both",
                             "--formula", "[ST<-0, ST<-1](BS=0)")
        assert (code, out) == (3, "")
        assert err == "error: 1:9: 'ST' is assigned twice\n"

    def test_eval_and_trace(self, capsys):
        code, out, _ = run(capsys, "eval", corpus_path("arson_conjunctive"),
                           "--context", "u11",
                           "--formula", "[ML1<-0, ML2<-1](FB=0)", "--trace")
        assert code == 0
        assert "trace: [ML1<-0, ML2<-1]" in out
        code, _, _ = run(capsys, "eval", corpus_path("arson_conjunctive"),
                         "--context", "u11",
                         "--formula", "[ML1<-0](FB=1)")
        assert code == 1
        code, _, _ = run(capsys, "eval", corpus_path("arson_conjunctive"),
                         "--context", "u11",
                         "--formula", "FB=1 | !(FB=1)")
        assert code == 0
        code, _, _ = run(capsys, "eval", corpus_path("arson_conjunctive"),
                         "--context", "u11", "--formula", "[ZZ<-0](FB=1)")
        assert code == 3

    def test_witnesses_and_process(self, capsys):
        code, out, _ = run(capsys, "witnesses",
                           corpus_path("double_prevention_hillary"),
                           "--context", "base", "--cause", "BPT=1",
                           "--effect", "TD=1")
        assert code == 0
        assert "HPT=0" in out and "SPS=1" in out
        code, out, _ = run(capsys, "witnesses", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "BT=1",
                           "--effect", "BS=1")
        assert code == 1
        assert "no witnesses" in out and "verdict: false" in out
        code, out, _ = run(capsys, "process", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "ST=1",
                           "--effect", "BS=1")
        assert code == 0
        assert "process: {ST, SH, BS}" in out

    @pytest.mark.parametrize("cause, partitions", [
        ("BT=1", 16),  # holds in the actual world, admits no witness
        ("ST=0", 0),  # fails AC1, so nothing is searched
    ])
    def test_process_of_a_non_cause_is_an_empty_result(self, capsys, cause,
                                                       partitions):
        argv = ("process", corpus_path("rock_refined"), "--context", "both",
                "--cause", cause, "--effect", "BS=1")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert "no processes" in out and "verdict: false" in out
        assert f"stats: {partitions} partitions" in out
        code, out, err = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert (code, err) == (1, "")
        assert payload["processes"] == [] and payload["verdict"] is False
        assert payload["stats"]["partitions_examined"] == partitions

    def test_contrast(self, capsys):
        code, _, _ = run(capsys, "contrast", corpus_path("april_showers"),
                         "--context", "base", "--cause", "AS=1",
                         "--effect", "F=2", "--against", "F=1")
        assert code == 0
        code, _, err = run(capsys, "contrast", corpus_path("april_showers"),
                           "--context", "base", "--cause", "AS=1",
                           "--effect", "F=2", "--against", "F=2")
        assert code == 3

    def test_contrast_rather_reads_a_value(self, capsys):
        args = ("contrast", corpus_path("merlin_coarse"), "--context",
                "spells", "--cause", "Mor=2", "--effect", "F=1",
                "--rather", "1")
        code, _, _ = run(capsys, *args, "--weak")
        assert code == 0
        code, _, _ = run(capsys, *args)
        assert code == 1

    def test_strong_definition_flag(self, capsys):
        code, _, _ = run(capsys, "check", corpus_path("sergeant_simple"),
                         "--context", "both", "--cause", "S=1",
                         "--effect", "A=1", "--definition", "strong")
        assert code == 1


class TestInvalidInput:
    """A bad context or contrast value is invalid input on every entry point:
    a DSL error from a model file or a query, exit 3 from the command line,
    also when --max-vars would refuse the model (exit 2) had it been
    searched."""

    # rock_refined has the exogenous variables UST and UBT, both binary.
    BAD_CONTEXTS = {
        "not_exogenous": ("UST=1, UBT=1, ST=1", UnknownIdentifier,
                          "non-exogenous 'ST'"),
        "out_of_range": ("UST=7, UBT=1", DslTypeError,
                         "value 7 outside domain of UST"),
        "missing": ("UST=1", DslTypeError, "does not assign exogenous 'UBT'"),
        "twice": ("UST=1, UBT=1, UST=0", DslSyntaxError,
                  "'UST' is assigned twice"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CONTEXTS))
    def test_bad_context_on_every_entry_point(self, capsys, case):
        items, error, message = self.BAD_CONTEXTS[case]
        text = example_text("rock_refined")
        declared = "context both { UST = 1, UBT = 1 }"
        assert declared in text
        with pytest.raises(error) as raised:
            load_model(text.replace(declared, f"context both {{ {items} }}"))
        assert message in raised.value.message
        loaded = load_model(text)
        with pytest.raises(error) as raised:
            parse_query(f"check cause ST=1 of BS=1 context {{{items}}}",
                        loaded)
        assert message in raised.value.message
        for cap in ((), ("--max-vars", "1")):
            code, out, err = run(capsys, "check", corpus_path("rock_refined"),
                                 "--context", items, "--cause", "ST=1",
                                 "--effect", "BS=1", *cap)
            assert (code, out) == (3, ""), cap
            assert err.startswith("error: ") and message in err, cap

    def test_rather_outside_the_cause_domain(self, capsys):
        loaded = load_model(example_text("rock_refined"))
        with pytest.raises(DslTypeError) as raised:
            parse_query("contrast cause ST=1 of BS=1 rather 7 context both",
                        loaded)
        assert raised.value.message == "7 outside domain of ST"
        code, out, err = run(capsys, "contrast", corpus_path("rock_refined"),
                             "--context", "both", "--cause", "ST=1",
                             "--effect", "BS=1", "--rather", "7",
                             "--max-vars", "1")
        assert (code, out) == (3, "")
        assert err == "error: 7 outside domain of ST\n"

    def test_no_error_names_a_made_up_position(self, capsys):
        rock = corpus_path("rock_refined")
        for argv in (("check", rock, "--context", "nachos", "--cause", "ST=1",
                      "--effect", "BS=1"),
                     ("check", rock, "--context", "both", "--cause", "ST=1",
                      "--effect", "NOPE=1"),
                     ("check", rock, "--context", "both", "--cause", "NOPE=1",
                      "--effect", "BS=1"),
                     ("check", rock, "--context", "UST=7, UBT=1", "--cause",
                      "ST=1", "--effect", "BS=1"),
                     ("eval", rock, "--context", "both", "--formula",
                      "[NOPE<-0](BS=0)")):
            code, _, err = run(capsys, *argv)
            assert code == 3 and err.startswith("error: "), argv
            assert not err.startswith("error: 0:0:"), err

    def test_query_model_faults_are_reported_at_the_query_keyword(self):
        loaded = load_model(example_text("rock_refined"))
        with pytest.raises(UnknownIdentifier) as raised:
            parse_query("check cause ST=1 of NOPE=1 context both", loaded)
        assert (raised.value.line, raised.value.column) == (1, 1)


# The options each query kind takes, and each option as query-language words
# and as command-line arguments.
TAKES = {
    "check": {"variant", "extended", "exclude_self"},
    "causes": {"variant", "extended", "exclude_self", "max_conjuncts"},
    "witnesses": {"variant", "extended"},
    "process": {"variant", "extended"},
    "eval": set(),
    "contrast": {"variant", "extended", "exclude_self"},
}
OPTIONS = {
    "variant": ("variant strong", ("--definition", "strong")),
    "extended": ("extended", ("--extended",)),
    "exclude_self": ("exclude_self", ("--exclude-self",)),
    "max_conjuncts": ("max_conjuncts 2", ("--max-conjuncts", "2")),
}


class TestOptionsByKind:
    """Each query kind takes its own options, in the query language and on
    the command line alike; any other is a syntax error or a usage error."""

    FLAGS = {"--definition", "--extended", "--exclude-self", "--max-conjuncts"}
    # Each kind's query on rock_refined, and the same query as CLI arguments.
    QUERIES = {
        "check": ("check cause ST=1 of BS=1 context both",
                  ("--cause", "ST=1", "--effect", "BS=1")),
        "causes": ("causes of BS=1 context both", ("--effect", "BS=1")),
        "witnesses": ("witnesses for ST=1 of BS=1 context both",
                      ("--cause", "ST=1", "--effect", "BS=1")),
        "process": ("process for ST=1 of BS=1 context both",
                    ("--cause", "ST=1", "--effect", "BS=1")),
        "eval": ("eval [ST<-0](BS=0) context both",
                 ("--formula", "[ST<-0](BS=0)")),
        "contrast": ("contrast cause ST=1 of BS=1 vs BS=0 context both",
                     ("--cause", "ST=1", "--effect", "BS=1",
                      "--against", "BS=0")),
    }

    def argv(self, kind):
        return (kind, corpus_path("rock_refined"), "--context", "both",
                *self.QUERIES[kind][1])

    @pytest.mark.parametrize("kind, option", [
        (kind, option) for kind in TAKES for option in OPTIONS])
    def test_option_is_taken_exactly_by_its_kinds(self, capsys, kind,
                                                  option):
        loaded = load_model(example_text("rock_refined"))
        text, flags = OPTIONS[option]
        query = self.QUERIES[kind][0]
        code, _, _ = run(capsys, *self.argv(kind), *flags)
        if option in TAKES[kind]:
            doc = parse_query(f"{query} {text}", loaded)
            assert getattr(doc, option) != getattr(
                parse_query(query, loaded), option)
            assert code in (0, 1)
        else:
            with pytest.raises(DslSyntaxError) as raised:
                parse_query(f"{query} {text}", loaded)
            assert (raised.value.line, raised.value.column) == (
                1, len(query) + 2)
            assert code == 2

    @pytest.mark.parametrize("kind", sorted(TAKES))
    def test_help_lists_the_flags_of_the_kind(self, capsys, kind):
        code, out, _ = run(capsys, kind, "--help")
        assert code == 0
        listed = {flag for flag in self.FLAGS if flag in out}
        assert listed == {OPTIONS[o][1][0] for o in TAKES[kind]}

    def test_repeated_clause_is_refused(self):
        loaded = load_model(example_text("rock_refined"))
        query = "check cause ST=1 of BS=1 context both"
        for repeat, column in ((" variant strong variant legacy", 54),
                               (" context both", 39),
                               (" extended extended", 48)):
            with pytest.raises(DslSyntaxError) as raised:
                parse_query(query + repeat, loaded)
            assert (raised.value.line, raised.value.column) == (1, column)

    def test_contrast_exclude_self_matches_the_query(self, capsys):
        loaded = load_model(example_text("rock_refined"))
        text = "contrast cause BS=1 of BS=1 rather 0 context both"
        for words, flags in (("", ()), (" exclude_self", ("--exclude-self",))):
            doc = parse_query(text + words, loaded)
            expected = run_query(loaded, doc).verdict
            code, out, _ = run(capsys, "contrast", corpus_path("rock_refined"),
                               "--context", "both", "--cause", "BS=1",
                               "--effect", "BS=1", "--rather", "0", *flags,
                               "--json")
            assert code == (0 if expected else 1), words
            assert json.loads(out)["verdict"] is expected, words
        code, out, _ = run(capsys, "check", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "BS=1",
                           "--effect", "BS=1", "--exclude-self")
        assert code == 1
        assert "rejected: the cause logically entails the effect" in out

    def test_weak_needs_rather(self, capsys):
        code, out, _ = run(capsys, *self.argv("contrast"), "--weak")
        assert (code, out) == (2, "")


def test_reader_that_closes_early_gets_no_traceback(tmp_path):
    """A reader that closes the output after its first line ends the command
    with exit code 141 and an empty stderr.  The witness list (3^6 entries,
    about 160 KB) outgrows a pipe's buffer, so the command is still writing
    when the pipe closes, whatever the scheduling."""
    noise = [f"N{i}" for i in range(6)]
    model = tmp_path / "wide.hpc"
    model.write_text(
        "model wide {\n  exo U : {0, 1}\n"
        + "".join(f"  var {v} : {{0, 1}}\n" for v in ["X", "Y", *noise])
        + "  eq X = U\n  eq Y = X\n"
        + "".join(f"  eq {v} = U\n" for v in noise)
        + "  context on { U = 1 }\n}\n")
    src = str(Path(actualcause.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    child = subprocess.Popen(
        [sys.executable, "-m", "actualcause.cli", "witnesses", str(model),
         "--context", "on", "--cause", "X=1", "--effect", "Y=1", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (141, b"")
