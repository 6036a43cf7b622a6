import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minkbilliards
from minkbilliards.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "1", "0", "1")
    assert code == 0 and out.strip() == "light-like"
    code, out, _ = run(capsys, "classify", "1", "0", "0")
    assert code == 0 and out.strip() == "space-like"


def test_classify_usage_error(capsys):
    code, _, _ = run(capsys, "classify", "0", "0", "0")
    assert code == 2       # zero vector violates the precondition


def test_caustics(capsys):
    code, out, _ = run(capsys, "caustics", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.2,0.05", "--dir", "1,0.1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["linetype"] == "space"
    assert doc["gamma2"] < 0 < doc["gamma1"]


def test_trace_schema(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    csv_file = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                     "--point", "0.1,0.2,0.05", "--dir", "1,0.3,0.2",
                     "--bounces", "20", "--out", str(out_file), "--csv", str(csv_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"ellipsoid", "linetype", "caustics", "case", "bounces", "period"}
    assert doc["ellipsoid"] == [4.0, 2.0, 1.0]
    assert doc["linetype"] in ("space", "time", "light")
    assert set(doc["caustics"]) == {"gamma1", "gamma2"}
    assert len(doc["bounces"]) == 20
    for b in doc["bounces"]:
        assert set(b) == {"t", "point", "component", "lambda"}
        assert b["component"] in ("capN", "capS", "belt", "tropic")
        assert len(b["point"]) == 3
        assert b["lambda"] is None or len(b["lambda"]) == 3
    assert doc["period"] is None or set(doc["period"]) == {"n", "m1", "n1", "n2"}
    rows = csv_file.read_text().strip().splitlines()
    assert rows[0].startswith("t,x1,x2,x3,component")
    assert len(rows) == 21


def test_trace_lightlike_caustic_sentinel(capsys):
    code, out, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.0,0.0", "--dir", "1,0,1", "--bounces", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["caustics"]["gamma2"] == "inf"
    assert doc["case"] == "light"


def test_check_cayley_exact_vector(capsys):
    code, out, _ = run(capsys, "check-cayley", "--params", "1,6/7,6,3/4,-3",
                       "--case", "S1", "--n", "4")
    assert code == 0 and out.strip() == "SATISFIED"


def test_check_cayley_below_threshold(capsys):
    code, out, _ = run(capsys, "check-cayley", "--params", "1,6/7,6,3/4,-3",
                       "--case", "S1", "--n", "3")
    assert code == 1 and out.strip() == "NOT-SATISFIED"


def test_verify_pell_cert(tmp_path, capsys):
    from fractions import Fraction as F
    from minkbilliards import HyperellipticParams, PellVariant, solve_pell
    sol = solve_pell(HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4), F(-3)),
                     4, PellVariant.EVEN_B)
    cert = tmp_path / "cert.json"
    cert.write_text(sol.to_json())
    code, out, _ = run(capsys, "verify-pell", "--cert", str(cert))
    assert code == 0 and out.strip() == "VALID"
    # corrupt one coefficient
    doc = json.loads(cert.read_text())
    doc["p_coeffs"][0] = "1/3"
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-pell", "--cert", str(cert))
    assert code == 1 and out.strip() == "INVALID"


def test_find_periodic_cli(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "grid": 24,
    }))
    code, out, _ = run(capsys, "find-periodic", "--spec", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) >= 1
    assert doc[0]["condition_residual"] <= 1e-12


def test_find_periodic_cli_empty(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S3", "n": 5, "grid": 8,
    }))
    code, out, _ = run(capsys, "find-periodic", "--spec", str(spec))
    assert code == 1
    assert json.loads(out) == []


def test_find_periodic_cli_no_branch_at_n4(tmp_path, capsys):
    # S2 has no B branch and its A branch starts at n = 6: an empty search
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S2", "n": 4, "grid": 8,
    }))
    code, out, _ = run(capsys, "find-periodic", "--spec", str(spec))
    assert code == 1
    assert json.loads(out) == []


def test_find_periodic_cli_odd_period_past_six(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 7, "grid": 8,
    }))
    code, out, err = run(capsys, "find-periodic", "--spec", str(spec))
    assert code == 2 and out == ""
    assert "n=7" in err


@pytest.mark.parametrize("command", ["find-periodic", "cross-validate"])
@pytest.mark.parametrize("field", [{"grid": 0}, {"grid": 1}, {"refine_tol": 0}])
def test_search_cli_refuses_a_degenerate_spec(tmp_path, capsys, command, field):
    # a grid below 2 points per axis or a refine_tol that is not finite and
    # positive is a violated precondition, not an empty search
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "grid": 8, **field,
    }))
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert code == 2 and out == ""
    assert "precondition violated" in err and next(iter(field)) in err


def test_cross_validate_cli(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [1.0, 6.0 / 7.0, 6.0], "case": "S1", "n": 4, "grid": 24,
    }))
    code, out, _ = run(capsys, "cross-validate", "--spec", str(spec))
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["valid"] for r in reports)
    assert reports[0]["signature"]["n"] == 4


def test_check_cayley_light_flag(capsys):
    code, out, _ = run(capsys, "check-cayley", "--params", "8,7,15,840/169",
                       "--case", "light", "--n", "6", "--light")
    assert code == 0 and out.strip() == "SATISFIED"


def test_check_cayley_light_flag_rejects_gamma2(capsys):
    # --light puts gamma2 at infinity, so a fifth value is a usage error,
    # not a value to drop
    code, out, err = run(capsys, "check-cayley", "--params", "8,7,15,840/169,3",
                         "--case", "light", "--n", "6", "--light")
    assert code == 2 and out == ""
    assert "--light" in err


def test_usage_error_exit_codes(capsys):
    assert run(capsys, "caustics", "--ellipsoid", "4,2", "--point", "0,0,0",
               "--dir", "1,0,0")[0] == 2
    assert run(capsys, "verify-pell", "--cert", "/nonexistent/file.json")[0] == 2
    assert main(["classify", "1", "0"]) == 2   # missing argument


def test_trace_rejects_bad_input(capsys):
    # a start outside the ellipsoid is a precondition error, not a bounce
    code, out, err = run(capsys, "trace", "--ellipsoid", "4,2,1",
                         "--point", "3,0,0", "--dir=-1,0,0.01", "--bounces", "5")
    assert code == 2 and out == "" and "outside ellipsoid" in err
    code, out, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.2,0.05", "--dir", "1,0.3,0.2", "--bounces", "-5")
    assert code == 2 and out == ""
    # zero bounces is still a valid (empty) request
    code, out, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.2,0.05", "--dir", "1,0.3,0.2", "--bounces", "0")
    assert code == 0 and json.loads(out)["bounces"] == []


def _modules_after(code: str) -> set[str]:
    """Heavy modules loaded by a fresh interpreter after running ``code``."""
    src = str(Path(minkbilliards.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    probe = code + "\nimport sys\nprint('loaded:', *(m for m in ('numpy', 'scipy') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    last = done.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:"
    return set(last[1:])


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert _modules_after("import minkbilliards.cli") == set()


def test_non_search_commands_leave_numpy_unloaded():
    code = ("from minkbilliards.cli import main\n"
            "assert main(['check-cayley', '--params', '1,6/7,6,3/4,-3', '--case', 'S1',"
            " '--n', '4']) == 0\n"
            "assert main(['trace', '--ellipsoid', '4,2,1', '--point', '0.1,0.2,0.05',"
            " '--dir', '1,0.3,0.2', '--bounces', '20']) == 0\n")
    assert _modules_after(code) == set()


def test_search_commands_load_numpy():
    # the control for the two tests above: the probe does see numpy
    assert "numpy" in _modules_after("import minkbilliards\nminkbilliards.find_periodic")


def test_lazy_package_namespace():
    for name in minkbilliards.__all__:
        assert getattr(minkbilliards, name) is not None
    assert set(minkbilliards.__all__) <= set(dir(minkbilliards))
    with pytest.raises(AttributeError):
        minkbilliards.no_such_name
