"""Command-line interface: golden outputs, exit codes, operation coverage."""

import io
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ntdice
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


DICE = '{"n":3,"A":[1,5,9],"B":[3,4,8],"C":[2,6,7]}'

# Stdout and exit code of every subcommand in text and --json mode; long
# outputs are pinned by the SHA-256 of their bytes.
GOLDEN = [
    (
        ["analyze", "ACBBACCBA"],
        0,
        "word: ACBBACCBA\nn: 3\nN(A>B): 5   P(A>B): 5/9\nN(B>C): 5   P(B>C): 5/9\n"
        "N(C>A): 5   P(C>A): 5/9\nbalanced: yes  nontransitive: yes  fair: no\n",
    ),
    (["analyze", "ACBBACCBA", "--json"], 0, GOLDEN_ANALYZE + "\n"),
    (["dice2word", DICE], 0, "ACBBACCBA\n"),
    (["dice2word", DICE, "--json"], 0, '{"word":"ACBBACCBA","n":3}\n'),
    (["word2dice", "ACBBACCBA"], 0, "A: 9 5 1\nB: 8 4 3\nC: 7 6 2\n"),
    (["word2dice", "ACBBACCBA", "--json"], 0, DICE + "\n"),
    (
        ["concat", "ABCCBA", "ACBBACCBA"],
        0,
        "ABCCBAACBBACCBA\ncounts: [13, 13, 13]  (predicted [13, 13, 13])\nP(A>B): 13/25\n",
    ),
    (
        ["concat", "ABCCBA", "ACBBACCBA", "--json"],
        0,
        '{"word":"ABCCBAACBBACCBA","n":5,"counts":[13,13,13],'
        '"predicted_counts":[13,13,13],"p_ab":"13/25"}\n',
    ),
    (["irreducible", "ACBBACCBA"], 0, "irreducible\n"),
    (["irreducible", "ACBBACCBAACBBACCBA"], 0, "reducible: split after 9 letters\n"),
    (
        ["irreducible", "ACBBACCBAACBBACCBA", "--json"],
        0,
        '{"irreducible":false,"witness_split":9}\n',
    ),
    (["irreducible", "ACBBACCBA", "--json"], 0, '{"irreducible":true,"witness_split":null}\n'),
    (
        ["construct", "--n", "7"],
        0,
        "ABCCBAABCCBAACBBACCBA\ncounts: [25, 25, 25]  P(A>B): 25/49\nirreducible: yes\n",
    ),
    (["construct", "--n", "7", "--json"], 0, GOLDEN_CONSTRUCT_7 + "\n"),
    (
        ["near-half", "--m", "3"],
        0,
        "ACBCBAABCCBAABCCBABAC\nn: 7  P(A>B): 25/49  excess: 1/98\n",
    ),
    (
        ["near-half", "--m", "3", "--json"],
        0,
        '{"m":3,"n":7,"word":"ACBCBAABCCBAABCCBABAC","counts":[25,25,25],'
        '"p":"25/49","excess":"1/98"}\n',
    ),
    (
        ["optimize", "--n", "8"],
        0,
        "n: 8  p: 1  rounds: 0\ntarget excess: 1/16\nachieved counts: [36, 36, 36]\n"
        "achieved P(A>B): 9/16\ngap: 0\nmoves applied: 0\n",
    ),
    (
        ["optimize", "--n", "8", "--json"],
        0,
        "sha256:0ffa0d916ab71769e6b2e6f9b7831a510de19680f51c2f151489b24d61578e96",
    ),
    (
        ["bounds", "--monotone-limit", "100"],
        0,
        "sha256:2759a3ec0c78f4c4202d169d8385455b6913896cddd92c2b10b659a572691cf1",
    ),
    (
        ["bounds", "--monotone-limit", "100", "--json"],
        0,
        "sha256:94b3b162792a83bc2b0d66f8efadfc0e4ad50f8744be454ab17ef72f11db37b3",
    ),
    (
        ["enumerate", "--n", "3"],
        0,
        "n: 3\ntotal words: 1680\nbalanced: 12\nbalanced non-transitive: 6\nfair: 0\n"
        "max probability: 5/9\n",
    ),
    (
        ["enumerate", "--n", "3", "--json"],
        0,
        "sha256:3ce801367cb37021fa2c504172a5887b7ca34e9f9d49d0e71409777aa9ec9191",
    ),
    (
        ["enumerate", "--n", "2"],
        0,
        "n: 2\ntotal words: 90\nbalanced: 6\nbalanced non-transitive: 0\nfair: 6\n"
        "max probability: None\n",
    ),
    (
        ["scan-max", "--n", "3"],
        0,
        "max probability: 5/9\nwitness: ACBBACCBA\nwitness: ACBCBABAC\nwitness: BACACBCBA\n"
        "witness: BACCBAACB\nwitness: CBAACBBAC\nwitness: CBABACACB\n",
    ),
    (
        ["scan-max", "--n", "3", "--json"],
        0,
        '{"n":3,"max_prob":"5/9","witnesses":["ACBBACCBA","ACBCBABAC","BACACBCBA",'
        '"BACCBAACB","CBAACBBAC","CBABACACB"]}\n',
    ),
    (["scan-max", "--n", "2"], 0, "no balanced non-transitive word exists\n"),
    (["scan-max", "--n", "2", "--json"], 0, '{"n":2,"max_prob":null,"witnesses":[]}\n'),
    (
        ["verify-fair", "--n", "2"],
        0,
        "sha256:97f887b2d89c8867d0257557a41e6398a0c2a1533a643dc458f5360e3973a8a7",
    ),
    (
        ["verify-fair", "--n", "2", "--json"],
        0,
        "sha256:1eb06863adb57bf47e75da2935b2606759f4e88747807428a088c96a8017a68d",
    ),
    (
        ["verify-fair", "--n", "3", "--json"],
        0,
        '{"n":3,"fair_words_found":0,"parity_ok":true,"reachable_same_perm":0,'
        '"reachable_mixed_perm":0,"not_reachable_same_perm":0,"not_reachable_mixed_perm":0,'
        '"unresolved_same_perm":0,"unresolved_mixed_perm":0}\n',
    ),
    (
        ["similar", "AABBCCCCBBAA", "ABCCBAABCCBA"],
        0,
        "outcome: found (explored 92 words)\nmoves: 6\n",
    ),
    (
        ["similar", "AABBCCCCBBAA", "ABCCBAABCCBA", "--json"],
        0,
        "sha256:dddedd892c649d8f4a3bb9d60dd1d928b2a0f9b75ffa5bc2f9a052b7009ddacd",
    ),
    (["similar", "ACBBACCBA", "CBABACACB"], 0, "outcome: not-similar (explored 3 words)\n"),
    (["normalize2", "AABBBBAA"], 0, "normal form: ABBAABBA\nmoves: 2\n"),
    (
        ["normalize2", "AABBBBAA", "--json"],
        0,
        '{"start":"AABBBBAA","moves":[{"kind":"pair-exchange","i":2,"j":6},'
        '{"kind":"pair-exchange","i":3,"j":5}],"end":"ABBAABBA"}\n',
    ),
    (["analyze", "ABCA", "--json"], 1, ""),
    (["optimize", "--n", "5"], 1, ""),
    (["verify-fair", "--n", "6", "--json"], 1, ""),
]


@pytest.mark.parametrize(
    "argv,code,expected", GOLDEN, ids=[" ".join(row[0]) for row in GOLDEN]
)
def test_golden_stdout_and_exit_code(argv, code, expected):
    got_code, out, err = run_cli(argv)
    assert got_code == code
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == expected
    assert err.startswith("error: ") if code else err == ""


def test_golden_table_covers_every_subcommand_in_both_modes():
    modes = {(argv[0], "--json" in argv) for argv, code, _ in GOLDEN if code == 0}
    assert modes == {(command, mode) for command in COMMAND_OPERATIONS for mode in (False, True)}


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

    def test_no_output_calls_one_ninth_a_bound(self):
        # 1/2 + 1/9 is passed by a 13-sided word (tests/test_constructions.py)
        for argv in (["bounds"], ["bounds", "--json"], ["--help"]):
            code, out, err = run_cli(argv)
            assert code == 0 and err == ""
            assert "1/9" not in out, argv

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

    def test_empty_concat_is_a_domain_error(self):
        code, out, err = run_cli(["concat", "", "", "--json"])
        assert code == 1
        assert out == ""
        assert err == "error: empty word has no win probabilities\n"

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

    @pytest.mark.parametrize(
        "dice_json,kind",
        [("[]", "array"), ("3", "number"), ('"n"', "string"), ("null", "null")],
    )
    def test_dice2word_names_a_non_object_input(self, dice_json, kind):
        for mode in ([], ["--json"]):
            code, out, err = run_cli(["dice2word", dice_json, *mode])
            assert code == 1
            assert out == ""
            assert err == (
                "error: malformed dice-set object: the input must be a JSON "
                f"object, got {kind}\n"
            )

    @pytest.mark.parametrize("dice_json", ["notjson", '{"n":3,', ""])
    def test_dice2word_reports_malformed_json(self, dice_json):
        for mode in ([], ["--json"]):
            code, out, err = run_cli(["dice2word", dice_json, *mode])
            assert code == 1
            assert out == ""
            assert err.startswith("error: malformed dice-set JSON: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bounds", "--monotone-limit", "-5"], "monotone limit must be >= 0, got -5"),
            (["verify-fair", "--n", "4", "--budget", "0"], "search budget must be at least 1, got 0"),
            (
                ["similar", "AABBCCCCBBAA", "ABCCBAABCCBA", "--budget", "-1"],
                "search budget must be at least 1, got -1",
            ),
            (
                ["verify-fair", "--n", "4", "--budget", "2000001"],
                "search budget must be at most 2000000, got 2000001",
            ),
            (
                ["similar", "ACBBACCBA", "CBABACACB", "--budget", "10000000"],
                "search budget must be at most 2000000, got 10000000",
            ),
        ],
    )
    def test_bad_bounds_and_budgets_exit_one(self, argv, message):
        for mode in ([], ["--json"]):
            assert run_cli(argv + mode) == (1, "", f"error: {message}\n")

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

    def test_budget_cut_census_ignores_hash_seed(self, tmp_path):
        # A budget stops each class search part-way, so the order of its
        # seeds decides which words it reaches; str hashes must not.
        src = Path(ntdice.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "ntdice.cli", "verify-fair", "--n", "4",
                "--budget", "40", "--json"]
        procs = [
            subprocess.Popen(argv, cwd=tmp_path, stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
            for seed in ("0", "3")
        ]
        outs = {proc.communicate(timeout=60)[0] for proc in procs}
        assert [proc.returncode for proc in procs] == [0, 0]
        assert len(outs) == 1
        payload = json.loads(outs.pop())
        assert (payload["reachable_same_perm"], payload["reachable_mixed_perm"]) == (41, 42)


class TestEnumerateOut:
    def test_out_file_round_trips(self, tmp_path):
        from ntdice import enumerate_words, load_stats

        path = tmp_path / "n3.json"
        code, out, err = run_cli(["enumerate", "--n", "3", "--out", str(path), "--json"])
        assert code == 0
        assert load_stats(path) == enumerate_words(3)
        # the printed JSON equals the file contents, modulo whitespace
        assert json.loads(out) == json.loads(path.read_text())

    @pytest.mark.parametrize(
        "target", ["missing/dir/n2.json", "existing/", "existing", "/no/such/dir/x.json"]
    )
    def test_unwritable_out_exits_one(self, target, tmp_path):
        (tmp_path / "existing").mkdir()
        path = target if os.path.isabs(target) else f"{tmp_path}/{target}"
        argv = ["enumerate", "--n", "2", "--out", path]
        for mode in ([], ["--json"]):
            code, out, err = run_cli(argv + mode)
            assert (code, out) == (1, "")
            assert err.startswith("error: [Errno ") and err.count("\n") == 1
            # the message names the path given, not the temporary file
            assert err.endswith(f": {path!r}\n")
            assert str(os.getpid()) not in err and ".tmp" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["existing"]

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


# The ntdice modules each subcommand loads beyond ntdice.cli: the lazy
# package namespace imports an owning module only when a name is used.
IMPORT_SCOPE = [
    (["analyze", "ACBBACCBA"], {"core"}),
    (["dice2word", DICE], {"core"}),
    (["word2dice", "ACBBACCBA"], {"core"}),
    (["concat", "ABCCBA", "ACBBACCBA"], {"core", "algebra"}),
    (["irreducible", "ACBBACCBA"], {"core", "algebra"}),
    (["similar", "ACBBACCBA", "ACBBACCBA"], {"core", "rewriting"}),
    (["normalize2", "AABBBBAA"], {"core", "rewriting"}),
    (["near-half", "--m", "3"], {"core", "rewriting", "constructions"}),
    (["optimize", "--n", "6"], {"core", "rewriting", "constructions"}),
    (["bounds", "--monotone-limit", "10"], {"core", "rewriting", "constructions"}),
    (["construct", "--n", "7"], {"core", "rewriting", "constructions", "algebra"}),
    (["enumerate", "--n", "3"], {"core", "enumeration"}),
    (["scan-max", "--n", "3"], {"core", "enumeration"}),
    (["verify-fair", "--n", "2"], {"core", "enumeration", "rewriting"}),
]

# Modules no ntdice process may load: ``dataclasses`` pulls in ``inspect``,
# ``ast``, ``dis`` and ``tokenize``, several times the cost of ``ntdice.core``.
HEAVY = {"dataclasses", "inspect"}


def _loaded_in_fresh_process(code, argv, tmp_path):
    """The ntdice modules a fresh process running code loads, and the other
    modules it loads beyond those present before its first line runs: the
    module set of ``python -c pass`` in the same environment, so a module
    that ``site`` loads is never counted."""
    src = Path(ntdice.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys\n_startup = set(sys.modules)\n" + code + (
        "\nprint(json.dumps([sorted(m for m in sys.modules if m.startswith('ntdice.')),"
        " sorted(set(sys.modules) - _startup)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ours, added = json.loads(proc.stdout.splitlines()[-1])
    return set(ours), set(added)


@pytest.mark.parametrize("argv,modules", IMPORT_SCOPE, ids=[row[0][0] for row in IMPORT_SCOPE])
def test_subcommand_imports_only_its_modules(argv, modules, tmp_path):
    code = (
        "import contextlib, io, json, sys\nimport ntdice.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ntdice.cli.main(sys.argv[1:]) == 0\n"
    )
    ours, added = _loaded_in_fresh_process(code, argv, tmp_path)
    assert ours == {"ntdice.cli"} | {f"ntdice.{name}" for name in modules}
    assert not HEAVY & added


def test_import_scope_covers_every_subcommand():
    assert sorted(argv[0] for argv, _ in IMPORT_SCOPE) == sorted(COMMAND_OPERATIONS)


def test_bare_package_import_loads_no_submodule(tmp_path):
    ours, added = _loaded_in_fresh_process("import json, sys\nimport ntdice\n", [], tmp_path)
    assert ours == set() and not HEAVY & added
