import json
import math
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
    # params whose caustics do not fit the variant break a precondition:
    # exit 2 with no verdict and no traceback
    mismatched = [
        {"variant": "evenA", "n": 6,
         "params": {"a1": "4/1", "a2": "2/1", "a3": "1/1", "gamma1": "1/1", "gamma2": None},
         "p_coeffs": ["1/1"], "q_coeffs": ["1/1"]},
        {**doc, "variant": "doubleA", "n": 6},
    ]
    assert mismatched[1]["params"]["gamma2"] != mismatched[1]["params"]["gamma1"]
    for bad in mismatched:
        cert.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify-pell", "--cert", str(cert))
        assert code == 2 and out == ""
        assert err.startswith("precondition violated: ") and "Traceback" not in err


@pytest.mark.parametrize("key,spoil", [
    ("n", lambda n: n + 0.7), ("n", str), ("n", bool),
    ("p_coeffs", dict.fromkeys), ("q_coeffs", dict.fromkeys),
    pytest.param(None, lambda doc: [doc], id="document-list"),
    pytest.param("params", lambda ps: list(ps.values()), id="params-list"),
    pytest.param("p_coeffs", lambda cs: [None, *cs[1:]], id="coefficient-null"),
    pytest.param("q_coeffs", lambda cs: ["1/0", *cs[1:]], id="coefficient-zero-denominator"),
    pytest.param("params", lambda ps: {**ps, "a1": 1.0}, id="param-number"),
])
def test_verify_pell_refuses_a_malformed_certificate(tmp_path, capsys, key, spoil):
    # a period that is not an int, or coefficients that are not a list, used
    # to be coerced (int(4.7) == 4, a dict read as its keys) into a
    # certificate that could read VALID; a document or params that are no
    # object, or a number that is no "p/q" string, raised a traceback or
    # read VALID (key None spoils the whole document)
    from fractions import Fraction as F
    from minkbilliards import HyperellipticParams, PellVariant, solve_pell
    sol = solve_pell(HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4), F(-3)),
                     4, PellVariant.EVEN_B)
    cert = tmp_path / "cert.json"
    cert.write_text(sol.to_json())
    assert run(capsys, "verify-pell", "--cert", str(cert))[:2] == (0, "VALID\n")
    doc = sol.to_json_dict()
    cert.write_text(json.dumps(spoil(doc) if key is None else {**doc, key: spoil(doc[key])}))
    code, out, err = run(capsys, "verify-pell", "--cert", str(cert))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


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
    # an unbounded range clips nothing
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "grid": 24,
        "g1_range": [-math.inf, math.inf], "g2_range": [-math.inf, math.inf],
    }))
    assert run(capsys, "find-periodic", "--spec", str(spec))[1] == out


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


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
def test_find_periodic_cli_period_below_three(tmp_path, capsys, n):
    # no periodicity condition starts below n = 3, so such a period is a
    # violated precondition; at n = 3 S1 has no branch, an empty search
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": n, "grid": 8,
    }))
    code, out, err = run(capsys, "find-periodic", "--spec", str(spec))
    if n < 3:
        assert code == 2 and out == ""
        assert f"n={n} is below 3" in err
    else:
        assert code == 1 and json.loads(out) == []


@pytest.mark.parametrize("command", ["find-periodic", "cross-validate"])
@pytest.mark.parametrize("field", [{"grid": 0}, {"grid": 1}, {"refine_tol": 0},
                                   {"g1_range": [math.nan, math.nan]},
                                   {"g2_range": [-0.5, math.nan]}])
def test_search_cli_refuses_a_degenerate_spec(tmp_path, capsys, command, field):
    # a grid below 2 points per axis, a range without lo < hi (a NaN end,
    # which max and min would drop) or a refine_tol that is not finite and
    # positive is a violated precondition, not an empty or unclipped search
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "grid": 8, **field,
    }))
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert code == 2 and out == ""
    assert "precondition violated" in err and next(iter(field)) in err


@pytest.mark.parametrize("command", ["find-periodic", "cross-validate"])
@pytest.mark.parametrize("doc", [
    {"ellipsoid": [4.0, 2.0], "case": "S1", "n": 4},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "g1_range": [1]},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "g1_range": [0.5, 1.0, 1.5]},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "g2_range": ["-1", "0"]},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4, "grid": [8]},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4.5},
    {"ellipsoid": [4.0, 2.0, 1.0], "case": "S1"},
    [{"ellipsoid": [4.0, 2.0, 1.0], "case": "S1", "n": 4}],
    {"ellipsoid": [4.0, 2.0, math.inf], "case": "S1", "n": 4},
])
def test_search_cli_refuses_a_malformed_spec(tmp_path, capsys, command, doc):
    # a spec of the wrong shape, or with a non-finite ellipsoid parameter, is
    # a usage error, never a traceback and never a search that quietly drops
    # what it cannot read
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["find-periodic", "cross-validate"])
@pytest.mark.parametrize("key,value", [("ellipsoid", [10 ** 400, 2, 1]), ("refine_tol", 10 ** 400),
                                       ("g1_range", [0, 10 ** 400]), ("grid", 10 ** 400)])
def test_search_cli_refuses_a_number_too_large_for_a_float(tmp_path, capsys, command, key, value):
    # JSON integers have no bound: one that no float holds is a usage error
    # naming its key, not an OverflowError traceback
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ellipsoid": [4, 2, 1], "case": "S1", "n": 4, key: value}))
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and repr(key) in err and "Traceback" not in err


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


def test_cross_validate_cli_without_candidates(tmp_path, capsys):
    # S3 has no odd period: no candidate to validate, which is no valid run
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ellipsoid": [4.0, 2.0, 1.0], "case": "S3", "n": 5, "grid": 8,
    }))
    code, out, _ = run(capsys, "cross-validate", "--spec", str(spec))
    assert code == 1
    assert json.loads(out) == {"candidates": 0, "valid": False}


def test_check_cayley_light_flag(capsys):
    code, out, _ = run(capsys, "check-cayley", "--params", "8,7,15,840/169",
                       "--case", "light", "--n", "6", "--light")
    assert code == 0 and out.strip() == "SATISFIED"


def test_check_cayley_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check-cayley", "--params", "4,2,1,1/2,-1/0",
                         "--case", "S1", "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "'-1/0'" in err
    assert "Traceback" not in err


def test_check_cayley_invalid_ellipsoid_states_the_rule(capsys):
    # the message names the rule and prints plain values, not Fraction reprs
    code, out, err = run(capsys, "check-cayley", "--params", "0,0,0,0,0",
                         "--case", "S1", "--n", "4")
    assert code == 2 and out == ""
    assert err == ("precondition violated: invalid ellipsoid: "
                   "need a1 > a2 > 0 and a3 > 0, got (0, 0, 0)\n")


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
    # so is a non-finite ellipsoid parameter, which once traced to a JSON
    # Infinity token and exit 1
    code, out, err = run(capsys, "trace", "--ellipsoid", "4,2,inf",
                         "--point", "0.1,0.1,0.1", "--dir", "1,0.3,0.2")
    assert code == 2 and out == "" and err.startswith("usage error: ") and "finite" in err
    code, out, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.2,0.05", "--dir", "1,0.3,0.2", "--bounces", "-5")
    assert code == 2 and out == ""
    # zero bounces is still a valid (empty) request
    code, out, _ = run(capsys, "trace", "--ellipsoid", "4,2,1",
                       "--point", "0.1,0.2,0.05", "--dir", "1,0.3,0.2", "--bounces", "0")
    assert code == 0 and json.loads(out)["bounces"] == []


def test_trace_reports_a_truncated_trajectory(tmp_path, capsys):
    # a chord that ends transversally on the tropic curve of (4, 2, 1), at
    # (4, 0, 1)/sqrt(5): the trajectory is written, the reflection there is
    # undefined, and the command exits 1
    x3 = 1.0 / 5.0 ** 0.5
    tropic = (4.0 * x3, 0.0, x3)
    chord = (-tropic[0], 0.05, -tropic[2])
    start = ",".join(repr(t + c) for t, c in zip(tropic, chord))
    back = ",".join(repr(-c) for c in chord)
    out_file = tmp_path / "traj.json"
    code, _, err = run(capsys, "trace", "--ellipsoid", "4,2,1", "--point", start,
                       f"--dir={back}", "--bounces", "5", "--out", str(out_file))
    assert code == 1
    assert err.startswith("trajectory truncated: reflection: ")
    assert json.loads(out_file.read_text())["bounces"][-1]["component"] == "tropic"


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


def test_non_search_commands_leave_numpy_unloaded(tmp_path):
    # caustics classifies the case, so the case table must live outside search
    from fractions import Fraction as F
    from minkbilliards import HyperellipticParams, PellVariant, solve_pell
    cert = tmp_path / "cert.json"
    cert.write_text(solve_pell(HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4), F(-3)),
                               4, PellVariant.EVEN_B).to_json())
    code = ("from minkbilliards.cli import main\n"
            "assert main(['classify', '1', '0', '1']) == 0\n"
            "assert main(['caustics', '--ellipsoid', '4,2,1', '--point', '0.1,0.2,0.05',"
            " '--dir', '1,0.1,0']) == 0\n"
            f"assert main(['verify-pell', '--cert', {str(cert)!r}]) == 0\n"
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
