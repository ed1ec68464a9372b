import argparse
import ast
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kronlab.cli import ROUTES, build_parser, main
from kronlab.symfunc import SchurSum

from oracles import singleton_free_partitions
from test_golden import CASES, GOLDEN, digest

S4_ASCII_ROW = "[2,1,1]      1      0     -1       -1          3"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_kron_both_agrees(capsys):
    code, out, err = run(capsys, "kron", "[3,1]", "[3,1]", "--method=both")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "kronlab/1"
    assert payload["degree"] == 4
    assert payload["terms"] == [
        {"partition": [4], "coeff": "1"},
        {"partition": [3, 1], "coeff": "1"},
        {"partition": [2, 2], "coeff": "1"},
        {"partition": [2, 1, 1], "coeff": "1"},
    ]


def test_kron_trivial_factor(capsys):
    code, out, _ = run(capsys, "kron", "[5]", "[3,1,1]", "--method=operator")
    assert code == 0
    assert json.loads(out)["terms"] == [{"partition": [3, 1, 1], "coeff": "1"}]


def test_kron_weight_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "kron", "[4]", "[2,1]")
    assert code == 2
    assert "weight mismatch" in err


def test_kron_bad_syntax_exit_2(capsys):
    code, _, err = run(capsys, "kron", "[4", "[2,1,1]")
    assert code == 2
    assert "error" in err


def test_unknown_method_rejected(capsys):
    code, _, _ = run(capsys, "kron", "[3,1]", "[3,1]", "--method=guess")
    assert code == 2


def test_method_choices_follow_the_route_table(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES, "kron-only", {"kron": ROUTES["operator"]["kron"]})
    monkeypatch.setitem(ROUTES, "power-only", {"power": ROUTES["operator"]["power"]})
    for name, commands in ROUTES.items():
        code, _, err = run(capsys, "power", "3", "1", f"--method={name}")
        if "power" in commands:
            assert code == 0, name
        else:
            assert code == 2 and "invalid choice" in err, name
    assert run(capsys, "kron", "[2,1]", "[2,1]", "--method=kron-only")[0] == 0
    for name in ("tableaux", "power-only", "all"):
        code, _, err = run(capsys, "kron", "[2,1]", "[2,1]", f"--method={name}")
        assert code == 2 and "invalid choice" in err, name


def test_power_all_routes(capsys):
    code, out, _ = run(capsys, "power", "4", "2", "--method=all")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"partition": [4], "coeff": "1"},
        {"partition": [3, 1], "coeff": "1"},
        {"partition": [2, 2], "coeff": "1"},
        {"partition": [2, 1, 1], "coeff": "1"},
    ]


def test_power_resource_limit(capsys):
    code, _, err = run(capsys, "power", "30", "2")
    assert code == 3
    assert "resource limit" in err


def test_chartable_ascii_table(capsys):
    code, out, _ = run(capsys, "chartable", "4", "--format=ascii")
    assert code == 0
    assert S4_ASCII_ROW in out.splitlines()


def test_kron_weight_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "kron", "[9,5,3,2,1]", "[8,6,3,2,1]")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: resource limit (n <= 16); raise --max-n to proceed\n"
    assert run(capsys, "kron", "[17]", "[16,1]", "--method=operator")[0] == 3
    code, out, _ = run(
        capsys, "kron", "[17]", "[16,1]", "--method=operator", "--max-n", "17"
    )
    assert code == 0
    assert json.loads(out)["terms"] == [{"partition": [16, 1], "coeff": "1"}]


def test_chartable_json(capsys):
    code, out, _ = run(capsys, "chartable", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["partitions"][1] == [3, 1]
    assert payload["values"][1] == ["-1", "0", "-1", "1", "3"]


def test_chartable_resource_limit_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "chartable", "40")
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert err == "error: resource limit (n <= 16); raise --max-n to proceed\n"


def test_chartable_ceiling_is_its_own_option(capsys):
    assert run(capsys, "chartable", "10", "--format=json")[0] == 0
    assert run(capsys, "chartable", "4", "--max-n", "3")[0] == 3
    code, out, _ = run(capsys, "chartable", "4", "--max-n", "4")
    assert code == 0 and json.loads(out)["n"] == 4


def test_tableaux_count(capsys):
    code, out, _ = run(capsys, "tableaux", "count", "[4]", "[2,2]", "2")
    assert code == 0 and out.strip() == "1"


def test_tableaux_count_ignores_limit(capsys):
    argv = ("tableaux", "count", "[3]", "[2,1]", "2")
    assert run(capsys, *argv, "--limit", "0") == run(capsys, *argv) == (0, "1\n", "")


def test_tableaux_list_format(capsys):
    code, out, _ = run(capsys, "tableaux", "list", "[3,1]", "[3,1]", "1")
    assert code == 0
    assert out.splitlines() == ["[3,1] [3,1]*2:1"]


def test_tableaux_list_limit_exit_3(capsys):
    code, _, err = run(capsys, "tableaux", "list", "[5]", "[3,2]", "9", "--limit", "5")
    assert code == 3
    assert "more than 5" in err


def test_tableaux_weight_mismatch(capsys):
    code, _, err = run(capsys, "tableaux", "count", "[4]", "[2,1]", "2")
    assert code == 2


def test_bijection_from_file(tmp_path, capsys):
    walk = "[6] [5,1] [5,1]*2:1 [4,2] [3,2,1] [4,1,1] [3,2,1] [2,2,2] [2,2,1,1] [3,2,1] [2,2,2] [3,2,1] [2,2,2]"
    path = tmp_path / "walks.txt"
    path.write_text(walk + "\n")
    code, out, _ = run(capsys, "bijection", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [[4, 10], [8, 12]]
    assert payload["cycles"] == [[4], [5, 3], [8, 6], [9, 2, 1], [10], [11, 7], [12]]
    assert payload["regime_ok"] is False


def readme_commands():
    """The argv of every ``kronlab`` line of README's CLI block and of every
    ``python -m kronlab.cli`` line of its "Install and test" block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for heading, prefix in (("## Install and test", "kronlab.cli"), ("## CLI", "kronlab")):
        block = readme.split(heading + "\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        for line in block.splitlines():
            args = shlex.split(line, comments=True)
            if prefix in args:
                commands.append(args[args.index(prefix) + 1 :])
    return commands


def test_readme_cli_block_runs(tmp_path, capsys):
    walks = tmp_path / "walks.txt"
    walks.write_text("[6] [5,1] [5,1]*2:1 [4,2]\n")
    commands = readme_commands()
    assert len(commands) == 11 and ["bijection", "walks.txt"] in commands
    for args in commands:
        args = [str(walks) if a == "walks.txt" else a for a in args]
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, ""), args
        assert out


def readme_cap_rows():
    """{command: {option: default}} of every row of README's cap table,
    whose option and default cells list a command's caps split by "/"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            options = [o.strip(" `") for o in cells[1].split("/") if "--max-" in o]
            defaults = [int(d) for d in cells[2].split("/") if d.strip()]
            rows[cells[0].strip("`")] = dict(zip(options, defaults, strict=True))
    return rows


def parser_caps():
    """{command: {option: default}} of the --max-* options of build_parser()."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            option: action.default
            for action in p._actions
            for option in action.option_strings
            if option.startswith("--max-")
        }
        for command, p in sub.choices.items()
    }


def test_readme_cap_table_matches_the_parser():
    # every subcommand has a row, bijection's with no cap, and every cap
    # and default of the table is the parser's, and the other way round
    assert readme_cap_rows() == parser_caps()


def readme_python_blocks():
    """The source of every ```python block of README, in order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]


def test_readme_python_blocks_run():
    """Every Python block of README runs in a fresh namespace.  An
    expression statement directly followed by a comment line shows its
    value there, as the interpreter prompt would print it."""
    blocks = readme_python_blocks()
    assert len(blocks) == 3
    shown = []
    for block in blocks:
        namespace: dict = {}
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
            if after.startswith("# "):
                assert repr(value) == after[2:]
                shown.append(after[2:])
    assert shown == ["s[4] + s[3, 1] + s[2, 2] + s[2, 1, 1]", "[0, 3, 4, 1, 2]"]


def test_bijection_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[5] [4,1]\n"))
    code, out, _ = run(capsys, "bijection")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [[1]]
    assert payload["cycles"] == [[1]]
    assert payload["regime_ok"] is True


def test_bijection_bad_walk_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[5] [5]\n"))
    code, _, err = run(capsys, "bijection")
    assert code == 2


def test_bijection_multi_row_initial_shape_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[3,1] [2,2]\n"))
    code, out, err = run(capsys, "bijection")
    assert (code, out) == (2, "")
    assert err == "error: bijection requires a one-row initial shape\n"


def test_formula_command(capsys):
    code, out, _ = run(capsys, "formula", "12", "5", "[9,2,1]")
    assert code == 0
    assert json.loads(out)["multiplicity"] == "70"


def test_formula_out_of_regime_exit_2(capsys):
    code, _, err = run(capsys, "formula", "4", "3", "[2,2]")
    assert code == 2
    assert "regime" in err


def test_formula_empty_shape(capsys):
    code, out, _ = run(capsys, "formula", "0", "0", "[]")
    assert code == 0
    assert json.loads(out)["multiplicity"] == "1"
    assert run(capsys, "tableaux", "count", "[]", "[]", "0") == (0, "1\n", "")


def test_deep_recursion_is_a_resource_limit(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES["operator"], "kron", raise_(RecursionError()))
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]")
    assert (code, out) == (3, "")
    assert err == "error: resource limit (recursion depth); use smaller inputs\n"


def test_formula_answers_at_scale(capsys):
    # on the one-row shape the formula counts the singleton-free set
    # partitions of the k letters
    code, out, err = run(capsys, "formula", "1200", "1000", "[1200]")
    assert (code, err) == (0, "")
    assert json.loads(out)["multiplicity"] == str(singleton_free_partitions(1000))
    code, out, err = run(capsys, "formula", "2500", "2000", "[2500]", "--max-k", "2000")
    assert (code, err) == (0, "")
    value = json.loads(out)["multiplicity"]
    # 4347 digits, leading ones as sum_j (-1)^(k-j) C(k, j) B_j gives them
    assert len(value) == 4347 and value.startswith("36142483732778171640")


FORMULA_LIMIT = "error: resource limit (n <= 2500, k <= 1000); raise --max-n/--max-k to proceed\n"


def test_formula_n_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", "2501", "0", "[2501]")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == FORMULA_LIMIT
    assert run(capsys, "formula", "12", "5", "[9,2,1]", "--max-n", "11")[:2] == (3, "")
    code, out, _ = run(capsys, "formula", "12", "5", "[9,2,1]", "--max-n", "12")
    assert (code, json.loads(out)["multiplicity"]) == (0, "70")


def test_formula_k_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", "10000000", "1000000", "[10000000]")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == FORMULA_LIMIT
    assert run(capsys, "formula", "2500", "2000", "[2500]")[:2] == (3, "")
    assert run(capsys, "formula", "12", "5", "[9,2,1]", "--max-k", "4")[:2] == (3, "")
    code, out, _ = run(capsys, "formula", "12", "5", "[9,2,1]", "--max-k", "5")
    assert (code, json.loads(out)["multiplicity"]) == (0, "70")


def test_egf_order_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "egf", "[3,2,1]", "--order", "400")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: resource limit (order <= 200); raise --max-order to proceed\n"
    code, out, _ = run(capsys, "egf", "[1]", "--order", "4", "--check", "--max-order", "3")
    assert (code, out) == (3, "")
    code, out, _ = run(capsys, "egf", "[1]", "--order", "4", "--max-order", "4")
    assert (code, json.loads(out)["coefficients"][1]) == (0, "1")


@pytest.mark.parametrize("action", ["count", "list"])
def test_tableaux_k_cap_exit_3(capsys, action):
    code, out, err = run(capsys, "tableaux", action, "[3]", "[2,1]", "99999999")
    assert (code, out) == (3, "")
    assert err == "error: resource limit (k <= 1000); raise --max-k to proceed\n"
    code, out, _ = run(capsys, "tableaux", action, "[3]", "[2,1]", "3", "--max-k", "2")
    assert (code, out) == (3, "")
    assert run(capsys, "tableaux", "count", "[3]", "[2,1]", "3", "--max-k", "3")[0] == 0


def test_egf_check(capsys):
    code, out, _ = run(capsys, "egf", "[]", "--order", "8", "--check")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows] == list(range(0, 9))
    assert all(r["ok"] for r in rows)
    assert {"k", "formula", "egf", "ok"} <= set(rows[0])


def test_egf_series(capsys):
    code, out, _ = run(capsys, "egf", "[1]", "--order", "4")
    assert code == 0
    assert json.loads(out)["coefficients"][1] == "1"


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 4 * 5


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--k", "0")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 2, "k": 0, "ok": True}]


def test_verify_n6_k5(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--k", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_tableaux_nonpositive_limit_exit_2(capsys):
    code, _, err = run(capsys, "tableaux", "list", "[4]", "[3,1]", "1", "--limit", "0")
    assert code == 2


def test_verify_resource_limit_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--n", "100", "--k", "1")
    assert code == 3
    assert "resource limit" in err


def test_verify_ceiling_can_be_raised(capsys):
    code, out, _ = run(capsys, "verify", "--n", "9", "--k", "1", "--max-n", "9")
    assert code == 0


def test_output_is_deterministic(capsys):
    first = run(capsys, "power", "5", "3", "--method=all")
    second = run(capsys, "power", "5", "3", "--method=all")
    assert first == second
    third = run(capsys, "tableaux", "list", "[5]", "[3,2]", "3")
    fourth = run(capsys, "tableaux", "list", "[5]", "[3,2]", "3")
    assert third == fourth


def test_verify_rejects_what_power_rejects(capsys):
    for n, k in (("1", "3"), ("5", "-1")):
        code, out, err = run(capsys, "verify", "--n", n, "--k", k)
        assert (code, out) == (2, "")
        assert run(capsys, "power", n, k) == (2, "", err)
    assert err == "error: k must be nonnegative\n"


def test_bijection_unreadable_file_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "bijection", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.txt" in err


def test_kron_both_disagreement_record(capsys, monkeypatch):
    wrong = SchurSum.schur((2, 2))
    monkeypatch.setitem(ROUTES["character"], "kron", lambda lam, mu: wrong)
    code, out, _ = run(capsys, "kron", "[3,1]", "[3,1]", "--method=both")
    assert code == 1
    payload = json.loads(out)
    assert payload["disagreement"] is True
    assert set(payload) == {"schema", "disagreement", "operator", "character"}
    assert len(payload["operator"]["terms"]) == 4
    assert payload["character"]["terms"] == [{"partition": [2, 2], "coeff": "1"}]


def test_power_all_disagreement_record(capsys, monkeypatch):
    wrong = SchurSum.schur((4,))
    monkeypatch.setitem(ROUTES["tableaux"], "power", lambda n, k: wrong)
    code, out, _ = run(capsys, "power", "4", "2", "--method=all")
    assert code == 1
    payload = json.loads(out)
    assert payload["disagreement"] is True
    assert list(payload)[2:] == ["operator", "character", "tableaux"]
    assert payload["operator"] == payload["character"]
    assert payload["tableaux"]["terms"] == [{"partition": [4], "coeff": "1"}]


def test_verify_reports_disagreement(capsys, monkeypatch):
    right = ROUTES["tableaux"]["power"]
    wrong = SchurSum.schur((3,))
    monkeypatch.setitem(
        ROUTES["tableaux"], "power", lambda n, k: wrong if (n, k) == (3, 2) else right(n, k)
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--k", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [row["ok"] for row in payload["rows"]] == [True, True, True, True, True, False]


def raise_(exc):
    def route(*args):
        raise exc

    return route


def test_memory_error_is_a_resource_limit(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES["operator"], "kron", raise_(MemoryError()))
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]")
    assert (code, out) == (3, "")
    assert err.startswith("error: resource limit (memory)") and err.count("\n") == 1


def test_os_error_is_exit_2(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES["operator"], "kron", raise_(OSError("disk gone")))
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]")
    assert (code, out, err) == (2, "", "error: disk gone\n")


def test_unexpected_exception_is_an_internal_error_exit_2(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES["operator"], "kron", raise_(KeyError("lost")))
    code, out, err = run(capsys, "kron", "[2,1]", "[2,1]")
    assert (code, out) == (2, "")
    assert err == "error: internal error (KeyError): 'lost'\n"


def source_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_tableaux_count_at_a_large_weight_answers_at_once():
    # only the shapes the walks reach are visited, not every partition of 60
    argv = ["tableaux", "count", "[60]", "[59,1]", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "kronlab.cli", *argv],
        capture_output=True, text=True, env=source_env(), timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def fresh_process(code):
    """Run ``code`` in a fresh interpreter; return its exit code, its stdout
    and the names of the modules loaded by its end, which it lists on stderr."""
    script = f"import sys\ntry:\n    {code}\nfinally:\n    print(*sys.modules, file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=source_env(), timeout=60,
    )
    return proc.returncode, proc.stdout, set(proc.stderr.split())


def test_cli_import_loads_no_heavy_stdlib_module():
    # start-up cost: compared with what the bare interpreter's site loads
    _, _, bare = fresh_process("pass")
    code, out, loaded = fresh_process("import kronlab.cli")
    assert (code, out) == (0, "")
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "typing"}
    assert not (loaded - bare) & heavy


def test_egf_check_loads_no_fractions_and_prints_the_golden_bytes():
    # the check compares integer counts; only reading a coefficient needs Fraction
    argv = CASES["egf-check"][0]
    code, out, loaded = fresh_process(f"from kronlab.cli import main; sys.exit(main({argv!r}))")
    assert not loaded & {"fractions", "decimal"}
    assert (code, digest(out)) == GOLDEN["egf-check"]


def test_closed_stdout_pipe_exit_2_without_traceback(tmp_path):
    # about 350 kB of walks, far more than a pipe buffers, so writing
    # goes on after the reader has closed its end
    argv = ["tableaux", "list", "[6]", "[4,2]", "8"]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "kronlab.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=source_env(),
        )
        assert proc.stdout.readline().startswith(b"[6] ")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        err.seek(0)
        stderr = err.read()
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


# the one stderr line of every failing golden case that argparse does not
# answer itself
GOLDEN_STDERR = {
    "kron-weight-mismatch": "error: weight mismatch (4,) vs (2, 1)",
    "kron-bad-syntax": "error: partition must look like [4,2,1], got '[4'",
    "power-n-too-small": "error: n must be at least 2",
    "power-negative-k": "error: k must be nonnegative",
    "power-resource-limit": (
        "error: resource limit (n <= 8, k <= 10); raise --max-n/--max-k to proceed"
    ),
    "power-k-limit": (
        "error: resource limit (n <= 8, k <= 10); raise --max-n/--max-k to proceed"
    ),
    "chartable-nonpositive": "error: n must be positive",
    "tableaux-list-limit": "error: more than 5 walks from (5,) to (3, 2)",
    "tableaux-weight-mismatch": "error: weight mismatch (4,) vs (2, 1)",
    "tableaux-nonpositive-limit": "error: --limit must be positive",
    "bijection-bad-walk": "error: stay at step 1 needs a distinguished non-first corner",
    "formula-out-of-regime": (
        "error: formula regime requires n >= k + second part; got n=4, k=3, lam=(2, 2)"
    ),
    "egf-order-too-small": "error: --order must be at least the weight 3 of (2, 1)",
    "verify-resource-limit": (
        "error: resource limit (n <= 8, k <= 10); raise --max-n/--max-k to proceed"
    ),
    "verify-k-limit": (
        "error: resource limit (n <= 8, k <= 10); raise --max-n/--max-k to proceed"
    ),
}
ARGPARSE_CASES = {"kron-unknown-method", "no-command"}


def test_golden_stderr_covers_every_failing_case():
    failing = {case for case, (code, _) in GOLDEN.items() if code}
    assert failing == set(GOLDEN_STDERR) | ARGPARSE_CASES


@pytest.mark.parametrize("case", list(GOLDEN_STDERR))
def test_golden_stderr(case, capsys, monkeypatch):
    argv, stdin = CASES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (GOLDEN[case][0], GOLDEN_STDERR[case] + "\n")
