"""Command-line behavior: formats, determinism, exit codes, budgets."""

import json
import os
import re
import subprocess
import sys

import pytest

import qeuler
from qeuler.cli import TABLES, main
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
    with pytest.raises(ValueError):
        budget_for("th1")
    assert budget_for("th2") == 9
    code, out, err = run_cli(capsys, "verify", "th1")
    assert code == 2 and out == "" and "nonnegative" in err


def test_console_script_entry_point():
    # the child imports the same qeuler as this process, installed or not
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "qeuler.cli", "table", "etangent", "--n-max", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["E_1 = 1", "E_3 = 1 + q"]


def test_verify_exit_code_on_identity_failure(capsys, monkeypatch):
    import qeuler.closedforms as cf
    from qeuler.poly import Poly

    monkeypatch.setattr(cf, "parity_free_euler_closed", lambda n: Poly.zero())
    code, out, _ = run_cli(capsys, "verify", "section6", "--n-max", "2")
    assert code == 1
    assert "FAIL  formula value differs from E_n" in out


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
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "3", "--jobs", "1000")
    assert code == 0 and workers == [3]  # CPU count caps the request
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "1", "--jobs", "1000")
    assert code == 0 and workers == [3, 2]  # so does the number of checks
    code, _, _ = run_cli(capsys, "verify", "section6", "--n-max", "0", "--jobs", "1000")
    assert code == 0 and workers == [3, 2]  # one check runs in-process


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
