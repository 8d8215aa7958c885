import ast
import functools
import inspect
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import schubert_blowup
from schubert_blowup import build_root_system, cli, flag, selfcheck, table
from schubert_blowup.conventions import RANK_BOUNDS, RANK_CAP
from schubert_blowup.errors import EngineError, InvariantViolation
from schubert_blowup.selfcheck import all_types
from schubert_blowup.weyl import ParabolicSubset
from contracts import CONTRACTS, argument_pool, drawn, params, public_callables
from test_rootsys import CORRUPT_A2_COLUMNS, corrupt_a2_cartan


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def subprocess_env():
    """os.environ with this package's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubert_blowup.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_classify_gr24_point():
    code, out = run(["classify", "--type", "A", "--rank", "3",
                     "--parabolic", "1,3", "--codim", "4"])
    assert code == 0
    assert "verdict     : FANO" in out


def test_classify_gr25_point():
    code, out = run(["classify", "--type", "A", "--rank", "4",
                     "--parabolic", "1,3,4", "--codim", "6"])
    assert code == 0
    assert "WEAK_FANO_NOT_FANO" in out


@pytest.mark.parametrize("codim, big", [("3", "true"), ("4", "unknown")])
def test_classify_big_follows_the_verdict(codim, big):
    # B2/B: weak-Fano-not-Fano at c = 3, not weak-Fano at c = 4
    argv = ["classify", "--type", "B", "--rank", "2", "--codim", codim]
    assert "\n-K big      : %s\n" % big in run(argv)[1]
    assert '\n  "anticanonical_big": "%s",\n' % big in run(argv + ["--format", "json"])[1]


def test_classify_codim_out_of_range_exits_2():
    code, _ = run(["classify", "--type", "A", "--rank", "2",
                   "--parabolic", "", "--codim", "5"])
    assert code == 2


def test_classify_invalid_parabolic_exits_2():
    code, _ = run(["cones", "--type", "A", "--rank", "2",
                   "--parabolic", "7", "--codim", "2"])
    assert code == 2


def test_classify_invalid_rank_exits_2():
    code, _ = run(["classify", "--type", "G", "--rank", "5",
                   "--parabolic", "", "--codim", "2"])
    assert code == 2


def test_cones_identity_matrix():
    code, out = run(["cones", "--type", "A", "--rank", "3",
                     "--parabolic", "1,3", "--codim", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["intersection_matrix"] == [[1, 0], [0, 1]]


def test_cones_full_flag_a2():
    code, out = run(["cones", "--type", "A", "--rank", "2",
                     "--parabolic", "", "--codim", "2", "--format", "json"])
    assert code == 0
    m = json.loads(out)["intersection_matrix"]
    assert m == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_json_round_trip():
    _, out = run(["classify", "--type", "B", "--rank", "3",
                  "--parabolic", "1,2", "--codim", "3", "--format", "json"])
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out
    assert sorted(data) == ["anticanonical", "anticanonical_big", "betas", "input",
                            "margins", "verdict"]


def test_text_and_json_agree():
    args = ["classify", "--type", "A", "--rank", "4",
            "--parabolic", "1,3,4", "--codim", "6"]
    _, text = run(args)
    _, js = run(args + ["--format", "json"])
    data = json.loads(js)
    assert data["verdict"] in text
    for a, beta in data["betas"].items():
        assert "beta_%-2s     : %d" % (a, beta) in text
    assert str(data["anticanonical"]["basis1"]["exceptional"]) in text


def test_table_grassmannian_boundary():
    code, out = run(["table", "--families", "A", "--max-rank", "4",
                     "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        n = int(row["type"][1:]) + 1
        assert row["weak_fano_boundary_c"] == n + 1


def test_table_full_flag_boundary():
    code, out = run(["table", "--families", "G", "--max-rank", "2",
                     "--full-flag", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert rows[0]["weak_fano_boundary_c"] == 3


def test_table_empty_families_exits_2():
    code, _ = run(["table", "--families", "", "--max-rank", "3"])
    assert code == 2


def test_table_deterministic():
    args = ["table", "--families", "A,B,C,D", "--max-rank", "5"]
    assert run(args) == run(args)


CHECK_STDOUT = """\
PASS I1 closure order-insensitive
PASS I2 sign coherence
PASS I3 rho/highest-coroot pairing
PASS I4 root_as_weight injective
PASS I5 simply-laced coroot identity
PASS W3 longest element root permutation
PASS W4 coset rep counts
PASS W5 reducedness
PASS W6 W^P lookup vs replay
PASS F2 closed forms vs Weyl word
PASS F4 Grassmannian dimension
PASS B1 cone duality
PASS B3 classifier vs cone test
PASS B5 margin certificates
PASS S1 Grassmannian two-path
PASS S3 cominuscule two-path
PASS S4 full-flag two-path
PASS S5 Kannan-Saha coroot identity
18/18 checks passed
"""

# the checks that the corrupted A2 Cartan fails, and the last line of `check`;
# dim G/P reads the closed form of |R^+|, so F4 and S1 pass and F2 catches the
# corrupted closure's 4 roots against the closed form's 3
CORRUPT_FAILS = ["FAIL I3 rho/highest-coroot pairing", "FAIL I5 simply-laced coroot identity",
                 "FAIL F2 closed forms vs Weyl word", "FAIL S3 cominuscule two-path",
                 "FAIL S5 Kannan-Saha coroot identity", "13/18 checks passed"]


def non_pass_lines(out):
    return [line for line in out.splitlines() if not line.startswith("PASS ")]


@functools.cache
def check_runs():
    """Two clean in-process `check` runs, shared by the tests that compare
    them (here and acceptance criterion 9)."""
    return run(["check"]), run(["check"])


def test_check_passes_and_is_deterministic():
    (code1, out1), (code2, out2) = check_runs()
    assert code1 == code2 == 0
    assert out1 == out2 == CHECK_STDOUT


def test_check_detects_corruption(monkeypatch):
    # negative control: corrupt one Cartan entry and the suite must fail
    corrupt_a2_cartan(monkeypatch)
    code, out = run(["check"])
    assert code == 1
    assert non_pass_lines(out) == CORRUPT_FAILS


def test_check_reports_a_crashed_check_as_error(monkeypatch):
    # a check that crashes is not a failed check: ERROR line and exit 3,
    # which takes precedence over a FAIL
    def crash(rs):
        yield 1 // 0

    def found(rs):
        yield ("counterexample",)

    replaced = {"B1 cone duality": crash, "I2 sign coherence": found}
    checks = [(label, replaced.get(label, fn), *rest) for label, fn, *rest in selfcheck.CHECKS]
    monkeypatch.setattr(selfcheck, "CHECKS", checks)
    code, out = run(["check"])
    assert code == 3
    lines = out.splitlines()
    assert "ERROR B1 cone duality: ZeroDivisionError: integer division or modulo by zero" in lines
    assert "FAIL I2 sign coherence" in lines
    assert lines[-1] == "%d/%d checks passed" % (len(checks) - 2, len(checks))
    assert sum(line.startswith("PASS ") for line in lines) == len(checks) - 2


def test_check_runs_a_row_on_its_families_alone(monkeypatch):
    # F4 patched to fail on every type but those of its families, type A
    def off_a(rs):
        if rs.spec.family != "A":
            yield (str(rs.spec),)

    checks = [(label, off_a if label.startswith("F4 ") else fn, *rest)
              for label, fn, *rest in selfcheck.CHECKS]
    monkeypatch.setattr(selfcheck, "CHECKS", checks)
    assert run(["check"]) == (0, CHECK_STDOUT)


def test_table_runs_to_rank_cap():
    code, out = run(["table", "--families", "A,B,C,D,E,F,G", "--max-rank", "16",
                     "--format", "json"])
    assert code == 0
    types = {row["type"] for row in json.loads(out)["rows"]}
    assert {"A16", "B16", "C16", "D16", "E8", "F4", "G2"} <= types


def test_table_beyond_rank_cap_exits_2():
    code, out = run(["table", "--families", "A", "--max-rank", "17"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_table_below_rank_one_exits_2(capsys, max_rank):
    code, out = run(["table", "--families", "A", "--max-rank", max_rank])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: max rank must be at least 1, got %s\n" % max_rank


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_the_pipe_sees_no_traceback(fmt):
    # as `| head -1`: the reader takes one line and closes the pipe. The JSON
    # table (109 kB) overflows the pipe, so a later write fails; the text
    # table (45 kB) may fit in it before the reader closes
    with subprocess.Popen([sys.executable, "-m", "schubert_blowup.cli", "table", "--families",
                           "A,B,C,D,E,F,G", "--max-rank", "16", "--format", fmt],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env()) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode in ((141,) if fmt == "json" else (0, 141))


@pytest.mark.parametrize("argv, message", [
    pytest.param(["classify", "--type", "H", "--rank", "2", "--codim", "2"], None, id="invalid-choice"),
    pytest.param(["classify", "--type", "A", "--rank", "two", "--codim", "2"], None, id="invalid-int"),
    pytest.param(["cones", "--type", "A", "--rank", "2"], None, id="missing-required"),
    pytest.param(["frobnicate"], None, id="unknown-command"),
    pytest.param([], None, id="no-command"),
    pytest.param(["table", "--families", "A", "--maximal-parabolics"], None, id="removed-option"),
    pytest.param(["check", "one\ntwo"], None, id="unrecognized-multiline"),
    pytest.param(["table", "--families", "A,H"], None, id="unknown-family"),
    pytest.param(["cones", "--type", "A", "--rank", "2", "--parabolic", "7", "--codim", "2"],
                 None, id="library-validation"),
    pytest.param(["classify", "--type", "A", "--rank", "1", "--codim", "2"],
                 "G/P has dimension 1, so it has no center of codimension >= 2",
                 id="no-center"),
    pytest.param(["table", "--families", "A,A"], "family 'A' given more than once",
                 id="repeated-family"),
    pytest.param(["classify", "--type", "A", "--rank", "2", "--parabolic", "1,x", "--codim", "2"],
                 "parabolic list must be comma-separated integers: '1,x'", id="bad-parabolic"),
])
def test_bad_argv_exits_2_with_one_error_line(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message is None or err == "error: %s\n" % message


GR24 = ["classify", "--type", "A", "--rank", "3", "--parabolic", "1,3", "--codim", "4"]


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "--type=A", "--rank=3", "--parabolic=1,3", "--codim=4"], id="equals"),
    pytest.param(["classify", "--ty", "A", "--ra=3", "--pa", "1,3", "--cod", "4", "--fo", "text"],
                 id="prefixes"),
    pytest.param(["classify", "--type", "B", "--type", "A", "--rank", "3", "--parabolic", "1,x",
                  "--parabolic", "1,3", "--codim", "4"], id="last-wins"),
])
def test_option_spellings_give_the_same_report(argv):
    assert run(argv) == run(GR24)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["classify", "--type", "A", "--rank", "2", "--parabolic", "1", "--parabolic",
                  "1,x", "--codim", "2"],
                 "parabolic list must be comma-separated integers: '1,x'", id="last-wins"),
    pytest.param(["table", "--f", "A"],
                 "ambiguous option: --f could match --families, --full-flag, --format",
                 id="ambiguous-prefix"),
    pytest.param(["table", "--families", "A", "--full-flag=x"],
                 "argument --full-flag: ignored explicit argument 'x'", id="flag-with-value"),
    pytest.param(["classify", "--type", "A", "--rank", "2", "--parabolic", "--codim", "2"],
                 "argument --parabolic: expected one argument", id="option-as-value"),
    pytest.param(["classify", "--type", "A", "--rank", "2", "--parabolic", "-x", "--codim", "2"],
                 "parabolic list must be comma-separated integers: '-x'", id="single-dash-value"),
    pytest.param(["classify", "--type", "A", "--rank", "2", "--codim", "2", "--", "-h"],
                 "unrecognized arguments: -- -h", id="double-dash"),
    pytest.param(["check", " "], "unrecognized arguments: ' '", id="blank-word"),
    pytest.param(["cones", "--type", "G", "--rank", "2", "--parabolic", "-hX", "", "--codim", "4"],
                 "unrecognized arguments: ''", id="empty-word"),
])
def test_usage_errors_name_the_option(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["classify", "-h"],
                                  ["cones", "--help"], ["table", "--families", "H", "--h"],
                                  ["check", "-h"]], ids=" ".join)
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (cli.USAGE + "\n", "")


def test_usage_names_every_command_and_option():
    words = cli.USAGE.replace("[", " ").replace("]", " ").split()
    for command, (_, options) in cli.COMMANDS.items():
        assert command in words
        for name, kind, _ in options:
            assert "--" + name in words
            assert type(kind) is not tuple or "{%s}" % ",".join(kind) in words


def test_main_reads_sys_argv_without_argv(monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["schubert-blowup"] + GR24)
    assert run(None) == run(GR24)


# imports a cold call must not make: argparse loads gettext and locale
COLD_FREE = {"argparse", "gettext", "json", "locale"}

COLD_CALLS = """
import runpy, sys
for argv in %r:
    sys.argv = ["schubert-blowup"] + argv
    try:
        runpy.run_module("schubert_blowup.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
print(" ".join(sys.modules))
""" % ([GR24 + ["--format", "json"],
        ["cones", "--type", "B", "--rank", "4", "--parabolic", "2", "--codim", "3"],
        ["table", "--families", "A,G", "--max-rank", "3", "--format", "json"]],)


def test_cold_calls_import_neither_argparse_nor_json():
    bare, calls = (subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=subprocess_env(), check=True).stdout.splitlines()[-1].split()
                   for code in ("import sys; print(' '.join(sys.modules))", COLD_CALLS))
    assert "schubert_blowup.blowup" in calls
    assert COLD_FREE & set(calls) - set(bare) == set()


# modules that a bare import and a classify or cones call must not load
QUERY_FREE = {"schubert_blowup." + name for name in ("reference", "table", "selfcheck", "special")}

# names that the query path defined before they moved behind the import
# boundary, with the names they have now: the coordinate bases, the facts of
# a RootSystem beyond its columns, the -K weight, the cone test, the least
# beta and the laws' Fano ladder
MOVED = {"_Coords", "Root", "Coroot", "Weight", "cartan", "symmetrizer", "symmetrizers",
         "_symmetrizers", "highest_root", "simple_coroot", "contains", "anticanonical_weight",
         "is_nef", "is_ample", "_mori", "least_beta", "_least_beta", "verdict_of",
         "_verdict_of"}

# the most source lines that a cold classify or cones call may compile
QUERY_LINES = 1364

# runs argv, if any, as the CLI does, else imports the package; then prints
# the package's loaded modules; the names that a loaded module defines, as a
# function or a class or as a member of one of its classes, and that
# reference or table defines too or MOVED names; and the source lines of the
# package's loaded modules, cli's among them when it ran (as __main__, which
# runpy has restored by then)
QUERY_IMPORTS = """
import os, runpy, sys
argv, moved = %r, %r
if argv:
    sys.argv = ["schubert-blowup"] + argv
    try:
        runpy.run_module("schubert_blowup.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
else:
    import schubert_blowup
loaded = sorted(k for k in sys.modules if k.startswith("schubert_blowup"))
files = [sys.modules[k].__file__ for k in loaded]
if argv:
    files.append(os.path.join(os.path.dirname(files[0]), "cli.py"))

def defined(name):
    module = sys.modules[name]
    return {f for f, v in vars(module).items() if getattr(v, "__module__", None) == name}

def members(name):
    own = vars(sys.modules[name])
    classes = [own[f] for f in defined(name) if isinstance(own[f], type)]
    return defined(name).union(*map(vars, classes))

query = set().union(*map(members, loaded))
from schubert_blowup import reference, table
print(" ".join(loaded))
print(" ".join(sorted(query & (defined(reference.__name__) | defined(table.__name__) | moved))))
print(sum(len(open(f).readlines()) for f in files))
"""


@pytest.mark.parametrize("argv", [[]] + [
    [command] + GR24[1:] + fmt for command in ("classify", "cones")
    for fmt in ([], ["--format", "json"])], ids=["import", "classify-text", "classify-json",
                                                 "cones-text", "cones-json"])
def test_cold_queries_load_no_reference_code(argv):
    proc = subprocess.run([sys.executable, "-c", QUERY_IMPORTS % (argv, MOVED)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    loaded, shared, lines = proc.stdout.splitlines()[-3:]
    assert "schubert_blowup.blowup" in loaded.split()
    assert QUERY_FREE & set(loaded.split()) == set()
    assert shared == ""
    assert int(lines) <= QUERY_LINES


def _reports(spec):
    """Every classify and cones report of spec's full flag and maximal
    parabolics at c = 2 and 3."""
    rs, n = build_root_system(spec), spec.rank
    for members in [()] + [set(range(1, n + 1)) - {node} for node in range(1, n + 1)]:
        fv = flag.FlagVariety(rs, ParabolicSubset(members))
        for c in range(2, min(3, flag.dimension(fv)) + 1):
            yield cli._classify_payload(fv, c)[1]
            yield cli._cones_payload(fv, c)


@pytest.mark.parametrize("family", list(RANK_BOUNDS))
def test_json_writer_matches_json_dumps_on_every_report(family):
    for spec in all_types(RANK_CAP, [family]):
        for report in _reports(spec):
            assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("policy", ["maximal-parabolics", "full-flag"])
def test_json_writer_matches_json_dumps_on_the_table(policy):
    report = {"policy": policy, "rows": table.rows(list(RANK_BOUNDS), RANK_CAP, policy)}
    assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)
    empty = {"b": [], "a": {}, "c": [-1, 0, "x y"]}
    assert cli._json(empty) == json.dumps(empty, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", ['a "quoted" name', "back\\slash", "line\nbreak", "\u00e9",
                                   True, 1.5, None, (1,), {1: 2}])
def test_json_writer_refuses_what_it_cannot_spell(value):
    with pytest.raises(InvariantViolation):
        cli._json({"rows": [{"type": value}]})


def test_the_library_raises_only_engine_errors():
    # main catches EngineError alone, so any other raise would reach the user
    # as a traceback; the AttributeErrors of a frozen Value and of the
    # package's __getattr__ (a missing module attribute) are the exceptions.
    # An assert would raise AssertionError, and vanish under python -O.
    for path in sorted(pathlib.Path(schubert_blowup.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Raise):
                raised = (path.name, ast.unparse(getattr(node.exc, "func", node.exc)))
                assert raised[1] in ("EngineError", "InvariantViolation") or raised in (
                    ("value.py", "AttributeError"), ("__init__.py", "AttributeError")), (
                    raised, node.lineno)


def test_no_call_probes_an_argument_for_an_attribute():
    # a call tests an argument's kind by its type (the rule of errors'
    # docstring): no handler catches AttributeError by name, and none for
    # Exception or BaseException guards a read of an argument's attribute
    probes = []
    for path in sorted(pathlib.Path(schubert_blowup.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Try):
                    continue
                reads = {n.value.id for stmt in node.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
                for handler in node.handlers:
                    caught = {n.id for n in ast.walk(handler.type or ast.Name("BaseException"))
                              if isinstance(n, ast.Name)}
                    if "AttributeError" in caught or (
                            caught & {"Exception", "BaseException"} and reads & params):
                        probes.append((path.name, fn.name, handler.lineno))
    assert probes == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_calls_return_or_raise_engine_errors(seed):
    # a seeded random caller of every public callable, on valid, wrong and
    # look-alike arguments: each call returns or raises EngineError within a
    # second, no function returns on a look-alike, and two postconditions
    # hold on what returns. Half the draws for a parameter are values of the
    # kind that the contract table gives it, so that calls get past their
    # first check. The wrong-kind walk and the wrong-shape table of test_weyl
    # pin the messages; this pins the type
    rng = random.Random(seed)
    pool = argument_pool()
    calls = [(f.__name__, f, [[v for v in pool if isinstance(v, kind)]
                              for _, kind in zip(params(f), CONTRACTS[f][0], strict=True)])
             for f in public_callables()]

    def draw(valid):
        return drawn(rng.choice(valid if rng.random() < 0.5 else pool))

    for _ in range(100000):
        name, f, valid = rng.choice(calls)
        args = tuple(map(draw, valid))
        start = time.perf_counter()
        try:
            out = f(*args)
        except EngineError:
            continue
        except Exception as exc:
            pytest.fail("%s%r raised %r" % (name, args, exc))
        finally:
            assert time.perf_counter() - start < 1, (name, args)
        # a look-alike is of the wrong kind; a constructor stores some fields unread
        assert inspect.isclass(f) or SimpleNamespace not in map(type, args), (name, args)
        if name == "enumerate_coset_reps":
            assert all(len(w.letters) <= args[2] for w in out), (args, out)
        elif name == "schubert_codim":
            assert out.dim + out.codim == schubert_blowup.dimension(args[0]), (args, out)


def _named(tree):
    """Every name a module reads: Name ids, Attribute attrs and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_engine_name_has_a_caller():
    # a public top-level function or class of an engine module (any module
    # but __init__, cli and selfcheck) must be named by another module of the
    # package or by perfbench: API that nothing uses is deleted. __init__'s
    # re-export counts for a class, which its own module constructs, but not
    # for a function, which it would leave without a caller. A public method
    # or property of an engine class must be named by some module of the
    # package, its own included, or by perfbench; tests do not count
    package = pathlib.Path(schubert_blowup.__file__).parent
    bench = package.parents[1] / "perfbench"
    assert bench.is_dir(), bench
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    bench_names = {n for path in bench.glob("*.py") for n in _named(ast.parse(path.read_text()))}
    # imported by name, or named in _LAZY, the table of what it imports on first access
    exported = set(_named(trees["__init__"])) | set(schubert_blowup._LAZY)
    anywhere = bench_names.union(*(_named(t) for s, t in trees.items() if s != "__init__"))
    unused = []
    for stem, tree in trees.items():
        if stem in ("__init__", "cli", "selfcheck"):
            continue
        called = bench_names.union(
            *(_named(t) for s, t in trees.items() if s not in (stem, "__init__")))
        unused += ["%s.%s" % (stem, node.name) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in called
                   and not (isinstance(node, ast.ClassDef) and node.name in exported)]
        unused += ["%s.%s.%s" % (stem, cls.name, node.name)
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_") and node.name not in anywhere]
    assert unused == []


def _no_float(token):
    raise AssertionError("JSON number %s is not an integer" % token)


_JUNK = st.sampled_from(["x", "", "2.5", "-1", "99", "H", "1,x", "one\ntwo", "-x", "-hX"])


@st.composite
def _argv(draw):
    """A random argv of classify, cones or table: all valid, or with one
    option dropped or given a junk value, or with a junk argument added."""
    command = draw(st.sampled_from(["classify", "cones", "table"]))
    options = {"--format": draw(st.sampled_from(["text", "json"]))}
    if command == "table":
        # unique: a repeated family is bad input, not a valid draw
        families = st.lists(st.sampled_from(list(RANK_BOUNDS)), min_size=1, max_size=3,
                            unique=True)
        options["--families"] = ",".join(draw(families))
        options["--max-rank"] = str(draw(st.integers(1, RANK_CAP)))
        if draw(st.booleans()):
            options["--full-flag"] = None
    else:
        spec = draw(st.sampled_from(all_types(RANK_CAP)))
        nodes = draw(st.lists(st.integers(1, spec.rank), max_size=spec.rank))
        options.update({"--type": spec.family, "--rank": str(spec.rank),
                        "--parabolic": ",".join(map(str, nodes)),
                        "--codim": str(draw(st.integers(2, 30)))})
    names = draw(st.permutations(sorted(options)))
    fault = draw(st.sampled_from([None, "drop", "value", "extra"]))
    victim = draw(st.sampled_from(names))
    if fault == "drop":
        names.remove(victim)
    elif fault == "value":
        options[victim] = draw(_JUNK)
    argv = [command]
    for name in names:
        argv += [name] if options[name] is None else [name, options[name]]
    return argv + [draw(_JUNK)] if fault == "extra" else argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_cli_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert err == ""
        if "json" in argv:
            json.loads(out, parse_float=_no_float, parse_constant=_no_float)


# corrupt_a2_cartan's corruption, for a subprocess
CORRUPT_A2 = """
import sys
from schubert_blowup import conventions
real = conventions.cartan_columns
conventions.cartan_columns = lambda f, r: %r if (f, r) == ("A", 2) else real(f, r)
print("optimize", sys.flags.optimize)
""" % (CORRUPT_A2_COLUMNS,)


def run_optimized(code):
    """Run `code` in a fresh `python -O`, which strips every assert."""
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_A2 + code],
                          capture_output=True, text=True, timeout=300, env=subprocess_env())
    assert proc.stdout.startswith("optimize 1\n"), proc.stderr
    return proc


def test_invariants_survive_python_O():
    proc = run_optimized("""
from schubert_blowup import TypeSpec, build_root_system, coroot_of
from schubert_blowup.reference import highest_root
from schubert_blowup.errors import InvariantViolation
rs = build_root_system(TypeSpec("A", 2))
try:
    print(coroot_of(highest_root(rs), rs).coeffs)
except InvariantViolation:
    print("InvariantViolation")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == ["InvariantViolation"]


def test_check_detects_corruption_under_python_O():
    proc = run_optimized("""
import runpy
sys.argv = ["schubert-blowup", "check"]
runpy.run_module("schubert_blowup.cli", run_name="__main__", alter_sys=True)
""")
    assert proc.returncode == 1, proc.stderr
    assert non_pass_lines(proc.stdout)[1:] == CORRUPT_FAILS


def test_class_check_survives_python_O():
    proc = run_optimized("""
from schubert_blowup import DivisorClass
from schubert_blowup.errors import EngineError
try:
    print(DivisorClass((1, 2), (1, 0, 5), 0))
except EngineError as exc:
    print(exc)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "coefficients (1, 0, 5), 0 over basis (1, 2): need a tuple basis, a tuple of"
        " an int per node and an int E or e coefficient"]
