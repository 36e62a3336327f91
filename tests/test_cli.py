import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symlab
from symlab.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, err = run_cli(["analyze", "--coeffs", "0,7,3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "analyze"
    assert doc["symbol"] == {"p": 2, "a": [0.0, 7.0, 3.0]}
    assert doc["lambda"] == [-4.75, -5.0, 5.666666666666666]
    assert doc["x"] == [-2.0, -1.0, 3.0]
    # infinite ray endpoint serializes as null
    ray = doc["cuts"][1]
    assert ray["lo"] is None and ray["hi"] == -5.0


def test_cubic_source_equivalent(capsys):
    code1, out1, _ = run_cli(["analyze", "--coeffs", "0,7,3"], capsys)
    code2, out2, _ = run_cli(["analyze", "--cubic", "-2,-1"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_zeros_csv(capsys):
    code, out, _ = run_cli(["zeros", "--coeffs", "0,0.25", "--n", "4"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "x"]
    xs = [float(r[1]) for r in rows[1:]]
    assert xs == pytest.approx(
        [-0.8090169943749475, -0.3090169943749474, 0.3090169943749474, 0.8090169943749475]
    )


def test_polys_csv(capsys):
    code, out, _ = run_cli(["polys", "--coeffs", "0,7,3", "--n", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "c0", "c1", "c2", "c3"]
    assert [float(v) for v in rows[4][1:]] == [-3.0, -14.0, 0.0, 1.0]


def test_density_grid(capsys):
    code, out, _ = run_cli(
        ["density", "--coeffs", "0,7,3", "--measure", "rho_1", "--grid", "-4:5:4"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "density"]
    assert len(rows) == 5
    assert float(rows[1][0]) == -4.0 and float(rows[4][0]) == 5.0
    assert all(float(r[1]) > 0 for r in rows[1:])


def test_density_all_measures(capsys):
    for measure in ("rho_2", "sigma_1", "s_1", "mu_2"):
        grid = "-9:-6:3" if measure == "rho_2" else "-4:5:3"
        code, out, _ = run_cli(
            ["density", "--coeffs", "0,7,3", "--measure", measure, "--grid", grid],
            capsys,
        )
        assert code == 0, measure
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4


def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--coeffs", "0,7,3", "--n", "10", "--k", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1 and doc["n"] == 10
    assert doc["roots"] == pytest.approx(
        [-42.21537375, -11.6480291, -6.55574882, -5.25703881], abs=1e-6
    )
    # P_{1,1} is a constant: no roots, not a count mismatch
    code, out, _ = run_cli(
        ["spectrum", "--coeffs", "0,7,3", "--n", "1", "--k", "1"], capsys
    )
    assert code == 0
    assert json.loads(out)["roots"] == []


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_spectrum_empty_section(n, capsys):
    # P_{n,2} on a section of size n - 2 <= 0 is 1: no roots, exit 0
    code, out, _ = run_cli(
        ["spectrum", "--coeffs", "0,9.99,6.545,0.74", "--n", n, "--k", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["roots"] == [] and doc["hausdorff_to_cut"] == 0.0


def test_spectrum_p3(capsys):
    # P_{20,1} of a p = 3 symbol: N_{20,1} - 1 = 12 roots on the ray
    # Gamma_2 = (-inf, -5.4704], counted and interlaced with the Psi_{20,1} zeros
    code, out, _ = run_cli(
        ["spectrum", "--coeffs", "0,9.99,6.545,0.74", "--n", "20", "--k", "1"], capsys
    )
    assert code == 0
    roots = np.array(json.loads(out)["roots"])
    assert roots.size == 12
    assert np.all(np.diff(roots) > 0) and roots[-1] < -5.47


def test_hp_json(capsys):
    code, out, _ = run_cli(["hp", "--coeffs", "0,0.25", "--n", "4", "--j", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_order"] == -5
    assert doc["slope"] == pytest.approx(-5.0, abs=0.05)


def test_hp_on_cut_is_named(capsys):
    # the hp grid [1e3, 1e6] lies inside Gamma_1 = [-2e6, 2e6] of (0, 1e12)
    code, _, err = run_cli(["hp", "--coeffs", "0,1e12", "--n", "3", "--j", "1"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "OnCut"


def test_exit_codes(capsys):
    # config errors: malformed coefficients, missing source, both sources
    code, _, err = run_cli(["analyze", "--coeffs", "abc"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"

    code, _, err = run_cli(["analyze"], capsys)
    assert code == 2

    code, _, err = run_cli(
        ["analyze", "--coeffs", "0,0.25", "--cubic", "-2,-1"], capsys
    )
    assert code == 2

    code, out, err = run_cli(["zeros", "--coeffs", "0,0.25", "--n", "-1"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"

    # math failure: zero leading coefficient is a domain error, not config
    code, _, err = run_cli(["analyze", "--coeffs", "0,7,0"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ZeroLeadingCoefficient"


@pytest.mark.parametrize("argv, kind", [
    (["analyze", "--cubic", "-1,-2"], "BadOrdering"),
    # p = 3 with critical points -2, -1, 1, 2: split 2 negative / 2 positive
    (["analyze", "--coeffs", "0,5,0,-1.3333333333333333"], "HypothesisViolated"),
], ids=["bad_ordering", "hypothesis_violated"])
def test_named_refusal_exits_1(argv, kind, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == kind


def test_zeros_past_float_range(capsys):
    # Q_200 of (0, 1e4) is about 1e400 at the cut ends, past the float
    # range; the zeros still come out, 200 cos(k pi/201) on [-200, 200]
    code, out, err = run_cli(["zeros", "--coeffs", "0,10000", "--n", "200"], capsys)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "x"] and len(rows) == 201
    zs = np.array([float(x) for _, x in rows[1:]])
    want = 200.0 * np.cos(np.arange(200, 0, -1) * np.pi / 201)
    np.testing.assert_allclose(zs, want, rtol=0, atol=1e-12 * 400.0)


def test_internal_error_is_not_config_error(monkeypatch, capsys):
    # an exception that is not a SymlabError is a bug: not a usage error
    # (2) nor a computation failure (1), but exit 3 with its traceback
    for exc in (ValueError, RuntimeError):
        def broken(*args, **kwargs):
            raise exc("internal")

        monkeypatch.setitem(symlab.cli._COMMANDS, "zeros", broken)
        code, out, err = run_cli(["zeros", "--coeffs", "0,0.25", "--n", "4"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and f"{exc.__name__}: internal\n" in err
        doc = json.loads(err[err.index("{\n"):])
        assert doc["error"] == {"type": "InternalError",
                                "message": f"{exc.__name__}: internal"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "analysis.json"
    code, out, _ = run_cli(
        ["analyze", "--coeffs", "0,7,3", "--out", str(target)], capsys
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["command"] == "analyze"


def test_deterministic_bytes(capsys):
    _, out1, _ = run_cli(["analyze", "--coeffs", "0,7,3"], capsys)
    _, out2, _ = run_cli(["analyze", "--coeffs", "0,7,3"], capsys)
    assert out1 == out2


def _child_env():
    # The child imports the same symlab as this test run (src/ or an
    # install) and gets its thread cap from SYMLAB_THREADS alone.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["SYMLAB_THREADS"] = "1"
    pkg_root = str(Path(symlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_verify_fast_subprocess():
    # run end to end through the console entry, including env thread cap
    proc = subprocess.run(
        [sys.executable, "-m", "symlab", "verify", "--coeffs", "0,0.25", "--suite", "fast"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "widom_l0" in names and "qn_zeros" in names


def test_verify_runs_without_mpmath():
    # mpmath is a test dependency only: symlab must import and verify
    # with it unimportable
    child = ("import sys; sys.modules['mpmath'] = None; import symlab.cli; "
             "sys.exit(symlab.cli.main(['verify', '--coeffs', '0,0.25', '--suite', 'fast']))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


# Reports OPENBLAS_NUM_THREADS at the moment numpy is first imported,
# then runs {entry}.
_RECORD_CAP_AT_NUMPY = """
import importlib.abc, os, sys

class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("at numpy:", os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
        return None

sys.meta_path.insert(0, Spy())
{entry}
"""


@pytest.mark.parametrize("entry", [
    "import symlab",
    "import runpy; sys.argv = ['symlab', 'analyze', '--coeffs', '0,0.25']; "
    "runpy.run_module('symlab', run_name='__main__', alter_sys=True)",
], ids=["import", "dash_m"])
def test_thread_cap_before_numpy(entry):
    # SYMLAB_THREADS must reach the BLAS variables before numpy first
    # loads; afterwards OpenBLAS has already sized its thread pool
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD_CAP_AT_NUMPY.format(entry=entry)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "at numpy: 1" in proc.stderr.splitlines(), proc.stderr
