"""Command-line interface: golden outputs, exit codes, operation coverage."""

import io
import contextlib
import json
from fractions import Fraction

import pytest

from ntdice.cli import COMMAND_OPERATIONS, build_parser, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


GOLDEN_ANALYZE = (
    '{"n":3,"counts":[5,5,5],"p":"5/9","balanced":true,'
    '"nontransitive":true,"fair":false}'
)

GOLDEN_CONSTRUCT_7 = (
    '{"n":7,"word":"ABCCBAABCCBAACBBACCBA","counts":[25,25,25],'
    '"p":"25/49","irreducible":true}'
)


class TestGoldenOutputs:
    def test_analyze_json(self):
        code, out, err = run_cli(["analyze", "ACBBACCBA", "--json"])
        assert code == 0
        assert out.strip() == GOLDEN_ANALYZE

    def test_construct_json(self):
        code, out, err = run_cli(["construct", "--n", "7", "--json"])
        assert code == 0
        assert out.strip() == GOLDEN_CONSTRUCT_7

    def test_byte_identical_across_runs(self):
        for argv in (
            ["analyze", "ACBBACCBA", "--json"],
            ["construct", "--n", "7", "--json"],
            ["scan-max", "--n", "3", "--json"],
        ):
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second

    def test_workers_flag_is_a_usage_error(self):
        for command in ("enumerate", "scan-max"):
            code, out, _ = run_cli([command, "--n", "3", "--workers", "2", "--json"])
            assert code == 2
            assert out == ""


class TestExitCodes:
    def test_domain_error_is_one(self):
        code, out, err = run_cli(["analyze", "ABCA"])
        assert code == 1
        assert "incomplete word: counts 2,1,1" in err

    def test_usage_error_is_two(self):
        code, out, err = run_cli(["analyze", "ACBBACCBA", "--bogus"])
        assert code == 2
        code, out, err = run_cli(["no-such-command"])
        assert code == 2

    def test_success_is_zero(self):
        code, out, err = run_cli(["analyze", "ABCCBA"])
        assert code == 0
        assert "fair: yes" in out


class TestCommandsRun:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "ABCCBA"],
            ["word2dice", "ACBBACCBA", "--json"],
            ["dice2word", '{"n":3,"A":[1,5,9],"B":[3,4,8],"C":[2,6,7]}'],
            ["concat", "ABCCBA", "ACBBACCBA", "--json"],
            ["irreducible", "ACBBACCBA"],
            ["construct", "--n", "6"],
            ["near-half", "--m", "3", "--json"],
            ["optimize", "--n", "8", "--json"],
            ["bounds", "--monotone-limit", "100"],
            ["enumerate", "--n", "2", "--json"],
            ["scan-max", "--n", "2"],
            ["verify-fair", "--n", "2", "--json"],
            ["similar", "AABBCCCCBBAA", "ABCCBAABCCBA"],
            ["normalize2", "AABBBBAA", "--json"],
        ],
    )
    def test_subcommand_succeeds(self, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err

    def test_dice2word_reports_bad_set(self):
        code, out, err = run_cli(
            ["dice2word", '{"n":1,"A":[1],"B":[1],"C":[3]}']
        )
        assert code == 1
        assert "label 1" in err

    def test_dice2word_rejects_non_int_and_duplicate_labels(self):
        code, out, err = run_cli(
            [
                "dice2word",
                '{"n":3.7,"A":[1.9,5.2,9.0],"B":[3,4,8,8],"C":[2,6,7]}',
            ]
        )
        assert code == 1
        assert out == ""
        assert "dice-set" in err

    def test_bounds_json_enclosures_contain_their_values(self):
        code, out, _ = run_cli(["bounds", "--monotone-limit", "10", "--json"])
        assert code == 0
        payload = json.loads(out)
        for key in ("limit_excess", "limit_excess_variant_154", "limit_excess_shortened"):
            surd = payload[key]
            a, b, c, d = (surd[k] for k in "abcd")
            assert b == -1  # value = (a - sqrt(d))/c, c > 0
            lo, hi = (Fraction(text) for text in surd["enclosure"])
            # lo <= value  <=>  sqrt(d) <= a - lo*c
            assert a - lo * c >= 0 and d <= (a - lo * c) ** 2, key
            # value <= hi  <=>  sqrt(d) >= a - hi*c
            assert a - hi * c <= 0 or d >= (a - hi * c) ** 2, key

    def test_roundtrip_through_json_outputs(self):
        _, out, _ = run_cli(["word2dice", "ACBBACCBA", "--json"])
        code, out2, _ = run_cli(["dice2word", out.strip(), "--json"])
        assert code == 0
        assert json.loads(out2)["word"] == "ACBBACCBA"

    def test_similar_budget_flag(self):
        code, out, _ = run_cli(
            ["similar", "AABBCCCCBBAA", "ABCCBAABCCBA", "--budget", "3", "--json"]
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "budget-exceeded"

    def test_verify_fair_budget_flag(self):
        code, out, _ = run_cli(["verify-fair", "--n", "4", "--budget", "5", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["unresolved_same_perm"] > 0


class TestEnumerateOut:
    def test_out_file_round_trips(self, tmp_path):
        from ntdice import enumerate_words, load_stats

        path = tmp_path / "n3.json"
        code, out, err = run_cli(["enumerate", "--n", "3", "--out", str(path), "--json"])
        assert code == 0
        assert load_stats(path) == enumerate_words(3)
        # the printed JSON equals the file contents, modulo whitespace
        assert json.loads(out) == json.loads(path.read_text())

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTDICE_CACHE_DIR", str(tmp_path / "cache"))
        code, out, err = run_cli(["enumerate", "--n", "2", "--out", "n2.json"])
        assert code == 0
        assert (tmp_path / "cache" / "n2.json").exists()


class TestCoverage:
    def test_every_operation_has_exactly_one_command(self):
        assignments = {}
        for command, operations in COMMAND_OPERATIONS.items():
            for op in operations:
                assert op not in assignments, f"{op} reachable from two commands"
                assignments[op] = command
        public_operations = {
            "parse_word",
            "word_from_dice",
            "dice_from_word",
            "pair_counts",
            "classify",
            "concat",
            "predict_counts",
            "combined_probability",
            "is_irreducible",
            "apply_move",
            "find_shift_sites",
            "normalize_two_letter_fair",
            "similar",
            "construct_irreducible",
            "construct_near_half",
            "stage_word",
            "max_shift_rounds",
            "optimize_max_prob",
            "bound_report",
            "enumerate_words",
            "max_probability",
            "verify_fair_conjecture",
            "cache_stats",
            "load_stats",
        }
        assert set(assignments) == public_operations

    def test_command_table_matches_parser(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.choices is not None)
        assert set(COMMAND_OPERATIONS) == set(sub.choices)
