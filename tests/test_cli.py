import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moddata import cli
from moddata.classifier import rank5_suite
from moddata.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from moddata.modular_data import load

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, timeout=60, max_bytes=None):
    """Run a fresh interpreter that imports moddata from src/, with a timeout
    and, given max_bytes, that limit on the child's address space (the test
    is skipped where the resource module is missing)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    limit = None
    if max_bytes is not None:
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=limit,
    )


@pytest.fixture()
def su2_9_file(data_dir):
    return str(data_dir / "su2_9_mod2.json")


@pytest.fixture()
def su2_4_file(data_dir):
    return str(data_dir / "su2_4_family_0.json")


class TestCheck:
    def test_admissible_exits_zero(self, capsys, su2_9_file):
        assert main(["check", su2_9_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "admissible" in out

    def test_json_output(self, capsys, su2_9_file):
        assert main(["--json", "check", su2_9_file]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1 and data["passed"]

    def test_failing_datum_exits_one(self, capsys, tmp_path, su2_9_file):
        datum = load(su2_9_file)
        bad = datum.to_json()
        bad["t_exponents"][1] = (bad["t_exponents"][1] + 1) % 11
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["check", str(path)]) == EXIT_FAIL

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/x.json"]) == EXIT_USAGE

    def test_schema_violation_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        assert main(["check", str(path)]) == EXIT_USAGE

    def test_huge_order_exits_two_without_traceback(self, tmp_path, su2_9_file):
        bad = load(su2_9_file).to_json()
        bad["S"][1][2]["order"] = 10**18 + 3
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(bad))
        proc = run_python("-m", "moddata.cli", "check", str(path))
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert "order cap" in proc.stderr


GOLDEN_CHECK_JSON = Path(__file__).resolve().parent / "golden_check_json"


def test_every_datum_file_has_a_recorded_check_json(data_dir):
    assert sorted(p.name for p in GOLDEN_CHECK_JSON.glob("*.json")) == sorted(
        p.name for p in data_dir.glob("*.json")
    )


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN_CHECK_JSON.glob("*.json"))
)
def test_check_json_output_is_stable(capsys, data_dir, name):
    """`moddata --json check` stdout stays byte-identical to its recording."""
    assert main(["--json", "check", str(data_dir / name)]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN_CHECK_JSON / name).read_bytes().decode()


# datum files that fail conditions (i)-(vii) between them, each an edit of a
# data/ file or a small hand-built datum (the name says which entries or
# twists moved), with their `check` and `--json check` stdout
GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports"
FAILING_NAMES = sorted(p.stem for p in (GOLDEN_REPORTS / "data").glob("*.json"))


def test_every_failing_datum_has_recorded_check_outputs():
    assert sorted(p.stem for p in (GOLDEN_REPORTS / "check").glob("*.out")) == FAILING_NAMES
    assert sorted(p.stem for p in (GOLDEN_REPORTS / "check_json").glob("*.json")) == FAILING_NAMES


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", FAILING_NAMES)
def test_failing_check_output_is_stable(capsys, name, as_json):
    """`moddata [--json] check` on a failing datum exits 1, and its stdout
    stays byte-identical to its recording."""
    argv = ["check", str(GOLDEN_REPORTS / "data" / f"{name}.json")]
    recorded = GOLDEN_REPORTS / "check" / f"{name}.out"
    if as_json:
        argv.insert(0, "--json")
        recorded = GOLDEN_REPORTS / "check_json" / f"{name}.json"
    assert main(argv) == EXIT_FAIL
    assert capsys.readouterr().out == recorded.read_bytes().decode()


def test_every_condition_fails_in_some_recording():
    failed = set()
    for name in FAILING_NAMES:
        report = json.loads((GOLDEN_REPORTS / "check_json" / f"{name}.json").read_text())
        failed |= {c["index"] for c in report["conditions"] if not c["passed"]}
    assert failed == {1, 2, 3, 4, 5, 6, 7}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_classify_rank5_output_is_stable(capsys, as_json):
    argv = ["classify-rank5"]
    recorded = GOLDEN_REPORTS / "classify_rank5.out"
    if as_json:
        argv.insert(0, "--json")
        recorded = GOLDEN_REPORTS / "classify_rank5.json"
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == recorded.read_bytes().decode()


def test_failing_rank5_suite_report_is_stable():
    """rank5_suite over the failing datum files: its table and JSON, FAIL
    rows and the caught errors' messages included, match their recording."""
    report = rank5_suite([(n, load(GOLDEN_REPORTS / "data" / f"{n}.json")) for n in FAILING_NAMES])
    assert report.format_table() + "\n" == (GOLDEN_REPORTS / "rank5_suite_failing.out").read_text()
    assert json.dumps(report.to_json(), indent=1) + "\n" == (
        GOLDEN_REPORTS / "rank5_suite_failing.json"
    ).read_text()


GOLDEN_FUSION = Path(__file__).resolve().parent / "golden_fusion"
FUSION_NAMES = sorted(p.stem for p in (GOLDEN_FUSION / "fusion").glob("*.out"))


def test_every_datum_file_has_a_recorded_fusion_output(data_dir):
    names = sorted(p.stem for p in data_dir.glob("*.json"))
    assert FUSION_NAMES == names
    assert sorted(p.stem for p in (GOLDEN_FUSION / "fusion_json").glob("*.json")) == names


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", FUSION_NAMES)
def test_fusion_output_is_stable(capsys, data_dir, name, as_json):
    """`moddata [--json] fusion` stdout stays byte-identical to its recording."""
    argv = ["fusion", str(data_dir / f"{name}.json")]
    recorded = GOLDEN_FUSION / "fusion" / f"{name}.out"
    if as_json:
        argv.insert(0, "--json")
        recorded = GOLDEN_FUSION / "fusion_json" / f"{name}.json"
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == recorded.read_bytes().decode()


GOLDEN_REP = Path(__file__).resolve().parent / "golden_rep"


@pytest.mark.parametrize("command", ["rep", "galois"])
def test_every_datum_file_has_a_recorded_rep_and_galois_output(data_dir, command):
    names = sorted(p.stem for p in data_dir.glob("*.json"))
    assert sorted(p.stem for p in (GOLDEN_REP / command).glob("*.out")) == names
    assert sorted(p.stem for p in (GOLDEN_REP / f"{command}_json").glob("*.json")) == names


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["rep", "galois"])
@pytest.mark.parametrize("name", FUSION_NAMES)
def test_rep_and_galois_output_is_stable(capsys, data_dir, name, command, as_json):
    """`moddata [--json] rep|galois` stdout stays byte-identical to its recording."""
    argv = [command, str(data_dir / f"{name}.json")]
    recorded = GOLDEN_REP / command / f"{name}.out"
    if as_json:
        argv.insert(0, "--json")
        recorded = GOLDEN_REP / f"{command}_json" / f"{name}.json"
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == recorded.read_bytes().decode()


# recording name -> (first file, second file, exit code); su2_9_mod2_relabelled.json
# is su2_9_mod2.json with labels 1..4 renamed (0, 3, 1, 4, 2)
EQUIV_CASES = {
    "family_0_vs_7": ("su2_4_family_0.json", "su2_4_family_7.json", EXIT_OK),
    "su2_9_vs_relabelled": (
        "su2_9_mod2.json",
        GOLDEN_FUSION / "su2_9_mod2_relabelled.json",
        EXIT_OK,
    ),
    "pointed_z5_vs_su2_9": ("pointed_z5.json", "su2_9_mod2.json", EXIT_FAIL),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(EQUIV_CASES))
def test_equiv_output_is_stable(capsys, data_dir, case, as_json):
    """`moddata [--json] equiv` stdout and exit code match their recording."""
    first, second, code = EQUIV_CASES[case]
    # data_dir / an absolute path is that absolute path
    argv = ["equiv", str(data_dir / first), str(data_dir / second)]
    if as_json:
        argv.insert(0, "--json")
    assert main(argv) == code
    suffix = ".json.out" if as_json else ".out"
    recorded = GOLDEN_FUSION / "equiv" / f"{case}{suffix}"
    assert capsys.readouterr().out == recorded.read_bytes().decode()


def test_runtime_imports_no_numpy():
    """Every subcommand succeeds on data/ files in an interpreter where
    mpmath cannot be imported, rep with its float column included; neither
    they nor the SL(2,Z) lifts and the vanishing-sum scan import numpy."""
    data = Path(__file__).resolve().parent.parent / "data"
    files = [str(data / f"{name}.json") for name in ("pointed_z5", "su2_9_mod2", "su2_4_family_0")]
    runs = [[*flag, cmd, f] for f in files for cmd in ("check", "fusion", "galois", "rep") for flag in ((), ("--json",))]
    runs += [["classify-rank5"], ["--json", "classify-rank5"], ["equiv", files[2], str(data / "su2_4_family_1.json")]]
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from moddata.catalog import pointed_zn\n"
        "from moddata.classifier import vanishing_sum_scan\n"
        "from moddata.cli import main\n"
        "from moddata.sl2z_reps import all_lifts, normalize\n"
        f"for argv in {runs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert argv[0] != 'rep' or '~' in out.getvalue(), out.getvalue()\n"
        "all_lifts(pointed_zn(7))\n"
        "normalize(pointed_zn(7))\n"
        "vanishing_sum_scan(8)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert sys.modules['mpmath'] is None, 'mpmath was imported'\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """Each moddata command starts a fresh interpreter, so what importing the
    CLI pulls in is paid on every run; dataclasses alone brings in inspect,
    ast, dis and tokenize."""
    code = (
        "import sys\n"
        "import moddata.cli\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def _entry(order, coeffs):
    return {"order": order, "coeffs": coeffs}


def _with(doc, **fields):
    return {**doc, **fields}


def _with_entry(doc, i, j, entry):
    """doc with S[i][j] and S[j][i] replaced, so S stays symmetric."""
    S = [list(row) for row in doc["S"]]
    S[i][j] = S[j][i] = entry
    return _with(doc, S=S)


# name -> (edit of data/pointed_z5.json, or the file's text, and the exit
# codes of check, fusion, galois and rep): 2 for a malformed file, 1 for a
# well-formed datum that is not modular; fusion reads S only, so a bad twist
# leaves it at 0
MALFORMED = {
    "deep_nesting": (lambda d: "[" * 200_000 + "]" * 200_000, (2, 2, 2, 2)),
    "top_level_list": (lambda d: [d], (2, 2, 2, 2)),
    "rank_not_int": (lambda d: _with(d, rank="five"), (2, 2, 2, 2)),
    "torder_missing": (lambda d: {k: v for k, v in d.items() if k != "torder"}, (2, 2, 2, 2)),
    "S_not_list": (lambda d: _with(d, S="identity"), (2, 2, 2, 2)),
    "entry_not_object": (lambda d: _with_entry(d, 1, 2, 3), (2, 2, 2, 2)),
    "coeffs_not_object": (lambda d: _with_entry(d, 1, 2, {"order": 5, "coeffs": ["1"]}), (2, 2, 2, 2)),
    "ragged_S": (lambda d: _with(d, S=[*d["S"][:2], d["S"][2][:-1], *d["S"][3:]]), (2, 2, 2, 2)),
    "entry_order_0": (lambda d: _with_entry(d, 1, 1, _entry(0, {"0": "1"})), (2, 2, 2, 2)),
    "torder_0": (lambda d: _with(d, torder=0), (2, 2, 2, 2)),
    "huge_torder": (lambda d: _with(d, torder=10**30), (2, 2, 2, 2)),
    "huge_entry_order": (lambda d: _with_entry(d, 1, 2, _entry(10**30, {"1": "1"})), (2, 2, 2, 2)),
    "huge_exponent": (lambda d: _with_entry(d, 1, 2, _entry(5, {str(10**40 + 2): "1"})), (1, 1, 1, 1)),
    "huge_coefficient": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": f"{10**300}/7"})), (1, 1, 1, 1)),
    "huge_twist_exponent": (lambda d: _with(d, t_exponents=[0, 10**40 + 2, 4, 4, 1]), (1, 0, 1, 1)),
    "fraction_zero_denominator": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "1/0"})), (2, 2, 2, 2)),
    "fraction_not_a_number": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "one"})), (2, 2, 2, 2)),
    "fraction_two_slashes": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "1/2/3"})), (2, 2, 2, 2)),
    # JSON integers only: int() would read these as rank 5, rank 1, torder 5,
    # exponent 1 (twice) and order 5
    "rank_float": (lambda d: _with(d, rank=5.0), (2, 2, 2, 2)),
    "rank_bool": (lambda d: _with(d, rank=True), (2, 2, 2, 2)),
    "torder_string": (lambda d: _with(d, torder="5"), (2, 2, 2, 2)),
    "exponent_float": (lambda d: _with(d, t_exponents=[0, 1.0, 4, 4, 1]), (2, 2, 2, 2)),
    "exponent_bool": (lambda d: _with(d, t_exponents=[0, True, 4, 4, 1]), (2, 2, 2, 2)),
    "entry_order_float": (lambda d: _with_entry(d, 1, 2, _entry(5.0, {"1": "1"})), (2, 2, 2, 2)),
    # the same after an identical valid entry ("order": 1 in row 0), which the
    # loader parses once: true and 1.0 hash as 1
    "entry_order_true_after_valid": (lambda d: _with_entry(d, 1, 2, _entry(True, {"0": "1"})), (2, 2, 2, 2)),
    "entry_order_float_after_valid": (lambda d: _with_entry(d, 1, 2, _entry(1.0, {"0": "1"})), (2, 2, 2, 2)),
    # coefficients are "p/q" strings: Fraction() would read 0.1 as
    # 3602879701896397/36028797018963968 and true as 1
    "coeff_float": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": 0.1})), (2, 2, 2, 2)),
    "coeff_bool": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": True})), (2, 2, 2, 2)),
    # exponent keys are plain digits: int() would read "1_0" as 10
    "exponent_key_underscore": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1_0": "1"})), (2, 2, 2, 2)),
    # coefficients are ASCII "p" or "p/q": Fraction() would read these as 10,
    # 1000, 1 (an Arabic-Indic digit), 1/2 and 1
    "coeff_underscore": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "1_0"})), (2, 2, 2, 2)),
    "coeff_exponent": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "1e3"})), (2, 2, 2, 2)),
    "coeff_arabic_indic": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "\u0661"})), (2, 2, 2, 2)),
    "coeff_spaces": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": " 1/2 "})), (2, 2, 2, 2)),
    "coeff_newline": (lambda d: _with_entry(d, 1, 2, _entry(5, {"1": "1\n"})), (2, 2, 2, 2)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_datum_is_refused(tmp_path, data_dir, case):
    """check, fusion, galois and rep exit 2 on a malformed datum file and 1 on
    a datum that is not modular, within the timeout and without a traceback."""
    edit, codes = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    doc = edit(json.loads((data_dir / "pointed_z5.json").read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = (
        "import contextlib, io\n"
        "from moddata.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([cmd, {str(path)!r}]) for cmd in ('check', 'fusion', 'galois', 'rep')]\n"
        "print(*codes)\n"
    )
    proc = run_python("-c", code)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.split() == [str(c) for c in codes], proc.stderr


class TestFusion:
    def test_prints_five_matrices(self, capsys, su2_4_file):
        assert main(["fusion", su2_4_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("N_") == 5

    def test_json(self, capsys, su2_4_file):
        assert main(["--json", "fusion", su2_4_file]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 5 and len(data["tensor"]) == 5


class TestGaloisCmd:
    def test_profile_printed(self, capsys, su2_9_file):
        assert main(["galois", su2_9_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "conductor of F_S: 11" in out and "orbits" in out

    def test_json(self, capsys, su2_9_file):
        assert main(["--json", "galois", su2_9_file]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["conductor"] == 11
        assert len(data["orbits"][0]) == 5
        assert set(data["signs"]) == set(str(k) for k in data["units"])


class TestRep:
    def test_rep_output(self, capsys, su2_9_file):
        assert main(["rep", su2_9_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "level: 33" in out and "parity: even" in out and "connected" in out


class TestLevels:
    def test_p3_list(self, capsys):
        assert main(["levels", "p=3,m=1,r=1"]) == EXIT_OK
        values = [int(line) for line in capsys.readouterr().out.split()]
        expected = sorted(
            {n for n in range(1, 169) if n % 7 == 0 and 168 % n == 0} | {9, 18, 36, 72}
        )
        assert values == expected

    def test_bad_shape_exits_two(self, capsys):
        assert main(["levels", "p=4,m=1,r=1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "p=3,r=60"],
        ["levels", "p=3,r=1000000000"],
        ["levels", "p=2305843009213693951,r=1"],
        ["catalog", "su2-odd-mod2", "--p", "2305843009213693951"],
    ],
    ids=["p3-r60", "p3-r1e9", "p-mersenne61", "su2-odd-mod2-mersenne61"],
)
def test_oversized_argument_exits_two_in_bounded_time(argv):
    # each level would be a multiple of p or 2p^r + 1, past any order the
    # package accepts; the refusal comes before any primality test
    proc = run_python("-m", "moddata.cli", *argv, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "shape, code",
    [
        # (Z/2)^m needs 2^m | phi(n) <= cap; the m-tuple is never built
        ("'multiquadratic,m=1000000000'", EXIT_USAGE),
        # longer than one argv string may be, so built in the child
        ("'p=3,' + ','.join(['r=1'] * 50000)", EXIT_OK),
    ],
    ids=["multiquadratic-m1e9", "p3-50000-r1"],
)
def test_long_shape_finishes_in_bounded_time_and_memory(shape, code):
    proc = run_python(
        "-c",
        f"import sys; from moddata.cli import main; sys.exit(main(['levels', {shape}]))",
        timeout=10,
        max_bytes=256 << 20,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == EXIT_USAGE:
        assert proc.stderr.startswith("error: ")
    else:
        assert proc.stdout == ""  # 50,000 equal exponents: no level


class TestCatalogCmd:
    def test_emit_datum(self, capsys, tmp_path):
        out_path = tmp_path / "p2.json"
        assert main(["catalog", "su2-odd-mod2", "--p", "2", "--out", str(out_path)]) == EXIT_OK
        datum = load(out_path)
        assert datum.rank == 2 and datum.torder == 5

    def test_su2_4_params(self, capsys, tmp_path):
        out_path = tmp_path / "fam.json"
        code = main(
            ["catalog", "su2-4", "--nu1", "1", "--nu2", "1", "--theta2", "1",
             "--theta3", "3", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        assert load(out_path).rank == 5

    def test_invalid_family_params(self, capsys):
        assert main(["catalog", "su2-odd-mod2", "--p", "4"]) == EXIT_USAGE

    def test_golden_regeneration_matches(self, capsys, tmp_path, data_dir):
        assert main(["catalog", "golden", "--out", str(tmp_path)]) == EXIT_OK
        for name in ("su2_9_mod2", "pointed_z5", "su2_4_family_15"):
            assert (tmp_path / f"{name}.json").read_bytes() == (
                data_dir / f"{name}.json"
            ).read_bytes()


class TestEquiv:
    def test_equivalent_pair(self, capsys, data_dir):
        code = main(
            ["equiv", str(data_dir / "su2_4_family_0.json"),
             str(data_dir / "su2_4_family_9.json")]
        )
        assert code == EXIT_OK
        assert "witness" in capsys.readouterr().out

    def test_inequivalent_pair(self, capsys, data_dir, su2_9_file):
        code = main(["equiv", su2_9_file, str(data_dir / "pointed_z5.json")])
        assert code == EXIT_FAIL
        assert "inequivalent" in capsys.readouterr().out


class TestClassifyRank5:
    def test_full_run(self, capsys):
        assert main(["classify-rank5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall: PASS" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_args(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_precision_flag_is_gone(self, capsys, su2_9_file):
        # rep prints each part correctly rounded; there is no digit knob
        assert main(["--precision", "6", "rep", su2_9_file]) == EXIT_USAGE

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch, su2_9_file):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert main(["check", su2_9_file]) == EXIT_OK
        assert main(["--json", "check", su2_9_file]) == EXIT_OK
        assert main(["check"]) == EXIT_USAGE  # a usage error after a successful call
        assert main(["check", su2_9_file]) == EXIT_OK
        assert built == [1]
