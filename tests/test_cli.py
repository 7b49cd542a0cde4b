"""Command-line behavior: formats, determinism, exit codes, budgets."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qeuler
from qeuler.cli import EXIT_CLOSED_PIPE, EXIT_INTERNAL_ERROR, TABLES, main
from qeuler.verify import budget_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_etangent_text(capsys):
    code, out, _ = run_cli(capsys, "table", "etangent", "--n-max", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "E_1 = 1",
        "E_3 = 1 + q",
        "E_5 = 2 + 5q + 5q^2 + 3q^3 + q^4",
    ]


def test_table_a_zero(capsys):
    code, out, _ = run_cli(capsys, "table", "A", "--n-max", "0")
    assert code == 0 and out.splitlines() == ["A_0 = 1"]


def test_table_touchard_last_line(capsys):
    code, out, _ = run_cli(capsys, "table", "touchard", "--n-max", "2", "--format", "text")
    assert code == 0 and out.splitlines()[-1] == "T_2 = 2 + q"


def test_table_json_shape_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "table", "B", "--n-max", "4", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "table", "B", "--n-max", "4", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "B"
    assert doc["entries"][2]["label"] == "B_2"
    assert doc["entries"][2]["poly"] == {"vars": ["y", "q"], "terms": [[1, 1, 0]]}


@pytest.mark.parametrize("kind", TABLES)
def test_table_at_its_cap_reproduces_the_pinned_digest(capsys, kind):
    # The benchmark pins the sha256 of every table at its cap; the test only reads them.
    pinned = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
    )
    invocation = f"table {kind} --n-max {TABLES[kind][0]} --format json"
    code, out, err = run_cli(capsys, *invocation.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[invocation]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "esecant", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coef,yExp,qExp"
    assert lines[1] == "0,1,0,0"   # E_0 = 1
    assert "2,2,0,0" in lines and "2,1,0,2" in lines  # E_4 = 2 + 2q + q^2


def test_table_eulerian(capsys):
    code, out, _ = run_cli(capsys, "table", "eulerian", "--n-max", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "Ehat_0,1 = 0",
        "Ehat_1,1 = 1",
        "Ehat_0,2 = 0",
        "Ehat_1,2 = 1",
        "Ehat_2,2 = 1",
    ]


def test_table_budget_violation(capsys):
    code, _, err = run_cli(capsys, "table", "A", "--n-max", "99")
    assert code == 2 and "exceeds" in err


@pytest.mark.parametrize("kind", TABLES)
def test_table_n_max_outside_its_range_is_usage_error(capsys, kind):
    cap = TABLES[kind][0]
    for n_max, message in ((-1, "n-max=-1 must be nonnegative"), (cap + 1, f"exceeds bound {cap}")):
        code, out, err = run_cli(capsys, "table", kind, "--n-max", str(n_max))
        assert (code, out) == (2, "") and message in err


def _materialized_table(kind, n_max, fmt):
    """The whole table built as one document: the layout the streamed output must match."""
    entries = list(TABLES[kind][1](n_max))
    if fmt == "json":
        doc = {
            "kind": kind,
            "entries": [
                {"index": i, "label": label, "poly": poly.to_json_obj()}
                for i, (label, poly) in enumerate(entries)
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    if fmt == "text":
        return "".join(f"{label} = {poly}\n" for label, poly in entries)
    rows = [f"{i},{c},{ye},{qe}\n" for i, (_, poly) in enumerate(entries) for ye, qe, c in poly.terms()]
    return "n,coef,yExp,qExp\n" + "".join(rows)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("n_max", [0, 4])
def test_streamed_table_equals_the_materialized_document(capsys, kind, fmt, n_max):
    code, out, err = run_cli(capsys, "table", kind, "--n-max", str(n_max), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _materialized_table(kind, n_max, fmt)
    if (kind, n_max, fmt) == ("eulerian", 0, "json"):  # the one empty table
        assert out == '{"kind":"eulerian","entries":[]}\n'


# How each format shows that entry i has been written.
_WRITTEN = {
    "text": lambda line, i: line.startswith(f"E_{2 * i + 1} = "),
    "json": lambda line, i: f'{{"index":{i},' in line,
    "csv": lambda line, i: line.startswith(f"{i},"),
}


@pytest.mark.parametrize("fmt", _WRITTEN)
def test_table_writes_each_entry_before_computing_the_next(capsys, monkeypatch, fmt):
    import qeuler.cli as cli
    import qeuler.closedforms as cf
    from qeuler.poly import Poly

    writes = []

    def record(*args, sep=" ", end="\n"):
        writes.append(sep.join(map(str, args)) + end)

    monkeypatch.setattr(cli, "print", record, raising=False)

    def written(i):
        return any(_WRITTEN[fmt](line, i) for line in writes)

    def closed_form(n):
        assert n == 0 or written(n - 1), f"entry {n - 1} not written before entry {n} is computed"
        if n == 3:
            raise ZeroDivisionError("closed form failed at n=3")
        return Poly.monomial(1, 0, n)

    monkeypatch.setattr(cf, "q_tangent_closed", closed_form)
    assert cli.main(["table", "etangent", "--n-max", "5", "--format", fmt]) == EXIT_INTERNAL_ERROR
    assert "ZeroDivisionError: closed form failed at n=3" in capsys.readouterr().err
    assert [i for i in range(6) if written(i)] == [0, 1, 2]


def test_internal_error_exits_70_after_the_entries_before_it(capsys, monkeypatch):
    import qeuler.closedforms as cf

    real = cf.q_tangent_closed

    def closed_form(n):
        if n == 2:
            raise RuntimeError("closed form failed at n=2")
        return real(n)

    monkeypatch.setattr(cf, "q_tangent_closed", closed_form)
    code, out, err = run_cli(capsys, "table", "etangent", "--n-max", "4")
    assert code == EXIT_INTERNAL_ERROR == 70
    assert out.splitlines() == ["E_1 = 1", "E_3 = 1 + q"]
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: closed form failed at n=2\n")


def test_closed_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qeuler.cli", "table", "etangent", "--n-max", "40", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    try:
        assert proc.stdout.readline() == b"n,coef,yExp,qExp\n"
        proc.stdout.close()  # the 1.5 MB table cannot fit in the pipe, so a write fails
        assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_bijection_figure(capsys):
    code, out, _ = run_cli(capsys, "bijection", "4371265")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "U[+1,1,0] F[+1,1,1] U[+1,1,0] D[+1,0,0] U[+1,1,1] D[+1,0,1] D[+1,0,0]"
    assert lines[1] == "stats: wex=4 asc=4 cr=3 31-2=3 fix=1"
    assert lines[2] == "tilde: 54823761"


def test_bijection_small(capsys):
    code, out, _ = run_cli(capsys, "bijection", "1")
    assert code == 0 and out.splitlines()[0] == "F[+1,1,0]"
    code, out, _ = run_cli(capsys, "bijection", "21")
    assert code == 0 and out.splitlines()[0] == "U[+1,1,0] D[+1,0,0]"
    code, out, _ = run_cli(capsys, "bijection", "10,3,2,4,5,6,7,8,9,1")
    assert code == 0 and out.splitlines()[2].startswith("tilde: 11,4,3,")


def test_bijection_malformed(capsys):
    code, _, err = run_cli(capsys, "bijection", "441")
    assert code == 2 and "error" in err
    code, out, err = run_cli(capsys, "bijection", "")
    assert code == 2 and out == "" and "error" in err
    for text in (",1", "1,,2", "1²"):
        code, out, err = run_cli(capsys, "bijection", text)
        assert (code, out, err) == (2, "", f"error: malformed permutation: {text!r}\n")


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "th2", "--n-max", "1")
    assert code == 0
    assert "signed_derangement_sum/n=1" in out and "FAIL" not in out


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_report_data_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "section6", "--n-max", "4")
    code, out2, _ = run_cli(capsys, "verify", "section6", "--n-max", "4")
    data1 = [l for l in out1.splitlines() if not l.startswith("#")]
    data2 = [l for l in out2.splitlines() if not l.startswith("#")]
    assert data1 == data2
    assert any(l.startswith("# timing") for l in out1.splitlines())
    suite_line = re.compile(r"# section6: \d+\.\d\ds \(slowest parity_free/n=[0-4] \d+\.\d\ds\)")
    assert sum(1 for l in out1.splitlines() if suite_line.fullmatch(l)) == 1


def test_verify_jobs(capsys):
    code, out, _ = run_cli(capsys, "verify", "section6", "--n-max", "3", "--jobs", "2")
    assert code == 0
    assert "parity_free/n=3" in out


def test_verify_th1_data_does_not_depend_on_jobs(capsys):
    """reduced_path_sum walks S_n inside a worker process under --jobs 2."""
    data = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "7", "--jobs", jobs)
        assert code == 0
        data.append(out.partition("\n# timing")[0])
    assert "reduced_path_sum/n=7" in data[0]
    assert data[0] == data[1]


def test_verify_all_data_does_not_depend_on_jobs(capsys):
    """Every suite's checks and results cross to worker processes and back."""
    data = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "3", "--jobs", jobs)
        assert code == 0
        data.append(out.partition("\n# timing")[0])
    assert "section6  suite result" in data[0]
    assert data[0] == data[1]


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("QEULER_BUDGET_OVERRIDE", "th1=4, section6=2")
    assert budget_for("th1") == 4
    assert budget_for("section6") == 2
    assert budget_for("th2") == 9
    assert budget_for("th1", 6) == 6  # explicit flag wins
    monkeypatch.setenv("QEULER_BUDGET_OVERRIDE", "th1=x")
    with pytest.raises(ValueError):
        budget_for("th1")


@pytest.mark.parametrize("raw", ["th7=3", "th1:6", "th1=6,th2"])
def test_budget_env_override_is_validated_whole(capsys, monkeypatch, raw):
    monkeypatch.setenv("QEULER_BUDGET_OVERRIDE", raw)
    for suite in ("th1", "section6"):  # whichever suite asks, and even under --n-max
        with pytest.raises(ValueError, match="QEULER_BUDGET_OVERRIDE"):
            budget_for(suite)
        with pytest.raises(ValueError, match="QEULER_BUDGET_OVERRIDE"):
            budget_for(suite, 3)
    code, out, err = run_cli(capsys, "verify", "section6", "--n-max", "1")
    assert code == 2 and out == "" and "QEULER_BUDGET_OVERRIDE" in err


@pytest.mark.parametrize("argv", [("th1", "--n-max", "-1"), ("section5", "--n-max", "-2")])
def test_verify_negative_bound_flag_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and "nonnegative" in err


def test_verify_negative_bound_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QEULER_BUDGET_OVERRIDE", "th1=-1")
    for suite in ("th1", "th2"):  # the variable is checked as a whole
        with pytest.raises(ValueError, match="nonnegative"):
            budget_for(suite)
    code, out, err = run_cli(capsys, "verify", "th1")
    assert code == 2 and out == "" and "nonnegative" in err


@pytest.mark.parametrize("raw, argv", [
    ("th1=-3", ("th2", "--n-max", "1")),  # an entry for a suite that does not run
    ("th2=-3", ("th2", "--n-max", "2")),  # an entry that the flag overrides
])
def test_verify_negative_env_entry_is_usage_error_under_n_max(capsys, monkeypatch, raw, argv):
    monkeypatch.setenv("QEULER_BUDGET_OVERRIDE", raw)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "QEULER_BUDGET_OVERRIDE bound of th" in err and "must be nonnegative, got -3" in err


def _child_env():
    """The environment of a child that imports the same qeuler as this process."""
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "qeuler.cli", "table", "etangent", "--n-max", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["E_1 = 1", "E_3 = 1 + q"]


def test_python_m_qeuler_is_the_cli():
    def run(module, *argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=_child_env()
        )

    package, cli = (run(m, "table", "etangent", "--n-max", "2") for m in ("qeuler", "qeuler.cli"))
    assert package.returncode == cli.returncode == 0
    assert package.stdout == cli.stdout and package.stdout.startswith("E_1 = 1\n")
    assert run("qeuler", "verify", "nosuch").returncode == 2


# Runs qeuler.cli as `python -m` does; its last line of output names the modules
# that the command loaded beyond those of a bare interpreter.
_LOADED_MODULES = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["qeuler", *sys.argv[1:]]
try:
    runpy.run_module("qeuler.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(" ".join(sorted(set(sys.modules) - before)))
"""

# What only verify and bijection run: the check engines.
_ENGINES = {"qeuler.verify", "qeuler.paths", "qeuler.bijections", "qeuler.permutations",
            "qeuler.tableaux", "qeuler.ansatz"}
# Modules that no command needs; dataclasses (with inspect) alone takes several
# milliseconds to import.
_UNUSED = {"dataclasses", "inspect"}


def _loaded_modules(argv):
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [["table", "A", "--n-max", "2"], ["--help"]])
def test_table_and_help_load_no_engine(argv):
    loaded = _loaded_modules(argv)
    assert {"qeuler.closedforms", "qeuler.poly"} <= loaded
    assert not loaded & (_ENGINES | _UNUSED), sorted(loaded & (_ENGINES | _UNUSED))


@pytest.mark.parametrize("argv", [["verify", "th2", "--n-max", "2"], ["bijection", "21"]])
def test_verify_and_bijection_load_no_dataclasses(argv):
    loaded = _loaded_modules(argv)
    assert {"qeuler.paths", "qeuler.permutations"} <= loaded
    assert not loaded & _UNUSED, sorted(loaded & _UNUSED)


# The help of qeuler and of each command at 80 columns, byte for byte.
HELP_TEXT = {
    (): """\
usage: qeuler [-h] {table,verify,bijection} ...

Exact q-Euler-number toolkit: tables, identity verification, path dumps.

positional arguments:
  {table,verify,bijection}
    table               print a value table
    verify              run identity-verification suites
    bijection           dump the path image of a permutation

options:
  -h, --help            show this help message and exit
""",
    ("table",): """\
usage: qeuler table [-h] [--n-max N_MAX] [--format {json,csv,text}]
                    {etangent,esecant,A,B,eulerian,touchard}

positional arguments:
  {etangent,esecant,A,B,eulerian,touchard}

options:
  -h, --help            show this help message and exit
  --n-max N_MAX
  --format {json,csv,text}
""",
    ("verify",): """\
usage: qeuler verify [-h] [--n-max N_MAX] [--jobs JOBS] [--seed SEED]
                     {all,th1,th2,th3,th4,tableaux,paths,ansatz,bijection,section5,section6}

positional arguments:
  {all,th1,th2,th3,th4,tableaux,paths,ansatz,bijection,section5,section6}

options:
  -h, --help            show this help message and exit
  --n-max N_MAX
  --jobs JOBS
  --seed SEED
""",
    ("bijection",): """\
usage: qeuler bijection [-h] permutation

positional arguments:
  permutation  one-line digits or comma-separated values

options:
  -h, --help   show this help message and exit
""",
}


@pytest.mark.parametrize("command", HELP_TEXT, ids=lambda c: " ".join(c) or "qeuler")
def test_help_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]


def test_verify_exit_code_on_identity_failure(capsys, monkeypatch):
    import qeuler.closedforms as cf
    from qeuler.poly import ZERO

    monkeypatch.setattr(cf, "parity_free_euler_closed", lambda n: ZERO)
    code, out, _ = run_cli(capsys, "verify", "section6", "--n-max", "2")
    assert code == 1
    assert "FAIL  closed differs from parity_free at entry 0" in out


def test_verify_refusal_exits_2_beside_a_failure_in_its_suite(capsys, monkeypatch):
    import qeuler.closedforms as cf

    closed = cf.q_euler_closed
    monkeypatch.setattr(cf, "q_euler_closed", lambda n: closed(n) + 1)
    code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "2")
    text = " ".join(out.split())
    assert "derangements/n<=2 REFUSED" in text and "th1 suite result FAIL" in text
    assert code == 2


def test_verify_budget_refusal_exits_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "tableaux", "--n-max", "8")
    assert code == 2
    refused = [l for l in out.splitlines() if "REFUSED" in l]
    assert any("n=8 exceeds bound 7" in l for l in refused)
    assert "tableaux  suite result" in refused[-1]
    assert "FAIL" not in out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "th1", "--jobs", jobs)
    assert code == 2 and out == "" and "--jobs" in err


def test_verify_jobs_clamped(capsys, monkeypatch):
    import concurrent.futures

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # the affinity mask caps the request, not the machine's CPU count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "3", "--jobs", "1000")
    assert code == 0 and workers == [3]
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "1", "--jobs", "1000")
    assert code == 0 and workers == [3, 2]  # so does the number of checks
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "0", "--jobs", "1000")
    assert code == 0 and workers == [3, 2]  # one check runs in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "3", "--jobs", "2")
    assert code == 0 and workers == [3, 2]  # pinned to one CPU, the checks run in-process
    # where the OS keeps no affinity mask, the CPU count caps the request
    monkeypatch.delattr(os, "sched_getaffinity")
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "3", "--jobs", "1000")
    assert code == 0 and workers == [3, 2, 4]


def test_verify_derangement_split_below_its_witness_is_refused(capsys):
    code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "2")
    line = next(l for l in out.splitlines() if "non_equidistribution_derangements" in l)
    assert code == 2 and "n<=2" in line and " REFUSED " in line
    assert "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "3")
    line = next(l for l in out.splitlines() if "non_equidistribution_derangements" in l)
    assert code == 0 and " PASS  distributions split at n=3" in line


def _timing_block(out):
    data, marker, timing = out.partition("# timing")
    assert marker and "(bound" not in data
    return timing.splitlines()[1:]


def test_verify_states_caps_and_floors_after_timing(capsys, monkeypatch):
    import qeuler.verify as verify

    # th1 at 10 is too slow to run here; the plan and the report are what is tested
    monkeypatch.setattr(
        verify, "run_check", lambda c: verify.CheckResult(c.suite, c.check_id, "PASS", "", 0.0)
    )
    code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "10")
    assert code == 0
    assert "# th1: equidistribution cap 8 on n (bound 10)" in _timing_block(out)


def test_verify_states_floor_and_no_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "th1", "--n-max", "4")
    assert code == 0
    assert "# th1: closed_form_even_vanishing floor 12 on n (bound 4)" in _timing_block(out)
    assert "closed_form_even_vanishing/n=12" in out
    code, out, _ = run_cli(capsys, "verify", "section6", "--n-max", "4")
    assert code == 0
    assert [l for l in _timing_block(out) if "(bound" in l] == []
