from __future__ import annotations

import json

from actualcause.cli import main
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
        code, _, err = run(capsys, "causes", corpus_path("doctor"),
                           "--context", "monday", "--effect", "BMC=3")
        assert code == 3
        assert "actual world" in err

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
        code, out, _ = run(capsys, "process", corpus_path("rock_refined"),
                           "--context", "both", "--cause", "ST=1",
                           "--effect", "BS=1")
        assert code == 0
        assert "process: {ST, SH, BS}" in out

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
