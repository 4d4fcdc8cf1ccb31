import json
import os
import warnings

import pytest

from renosc import builtin_catalog, cli


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def small_harmonic_config(tmp_path):
    doc = {
        "kind": "second-order",
        "l": 1,
        "B": [1.0],
        "V": [["0"]],
        "W": [["0"]],
        "P": "dirichlet",
        "Q": "dirichlet",
        "lambda": [0.0, 50.0],
        "x_steps": 400,
        "lambda_steps": 120,
    }
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_config_exits_1(tmp_path, capsys):
    assert run(["box", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "second-order", "mystery": 1}))
    assert run(["left-shelf", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("override", [
    {"x_steps": "abc"}, {"x_steps": None}, {"x_steps": float("nan")},
    {"x_steps": 400.5}, {"l": "two"}, {"m": "x"}, {"B": ["a"]},
    {"B": [float("nan")]}, {"lambda": ["a", 1]}, {"lambda": [0, float("inf")]},
], ids=repr)
def test_malformed_config_value_exits_1(small_harmonic_config, override, tmp_path, capsys):
    with open(small_harmonic_config) as fh:
        doc = {**json.load(fh), **override}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["left-shelf", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


HIGHER_ORDER = {
    "kind": "higher-order", "n": 2, "m": 1, "alphas": ["0", "0", "1"],
    "kappas": [1.0], "P": "dirichlet", "Q": "dirichlet", "lambda": [0.0, 50.0],
    "x_steps": 200, "lambda_steps": 20,
}


@pytest.mark.parametrize("key,value", [
    ("B", 2.0), ("V", 2.0), ("W", [0.0]), ("alphas", 2.0), ("kappas", 1.0),
    ("P", [["a"], ["b"]]), ("Q", [["a"], ["b"]]),
])
def test_malformed_list_or_frame_exits_1(small_harmonic_config, key, value, tmp_path, capsys):
    # a scalar where a list is required, or a frame that is not a matrix of
    # numbers, is a ConfigError (exit 1), not a raw traceback
    with open(small_harmonic_config) as fh:
        doc = HIGHER_ORDER if key in ("alphas", "kappas") else json.load(fh)
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    assert run(["left-shelf", str(path), "--out", str(tmp_path / "ok")]) == 0
    path.write_text(json.dumps({**doc, key: value}))
    capsys.readouterr()
    assert run(["left-shelf", str(path), "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("override,message", [
    ({"kappas": [0, 60]}, "kappa values must be non-zero"),
    ({"alphas": ["1", "0", "10", "x-0.5"]}, "alpha_n is not positive"),
], ids=["zero-kappa", "non-positive-alpha_n"])
def test_coefficient_defect_exits_1(override, message, tmp_path, capsys):
    # a defect in the coefficient definition is a config error (exit 1), not
    # an invariance violation, whether it is found at load or at propagation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**builtin_catalog("example1").to_dict(), **override}))
    assert run(["left-shelf", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_left_shelf_outputs(small_harmonic_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["left-shelf", small_harmonic_config, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert len(payload["crossings"]) == 2
    summary = json.loads(read(out / "summary.json"))
    assert summary == payload  # every printed number lands in the summary
    csv = read(out / "left_shelf.csv").decode()
    assert csv.splitlines()[0] == "param,omega1,omega2,psi1,psi2,rho"
    assert len(csv.splitlines()) == 402


def test_determinism_byte_identical(small_harmonic_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["left-shelf", small_harmonic_config, "--out", str(out1)]) == 0
    assert run(["left-shelf", small_harmonic_config, "--out", str(out2)]) == 0
    for name in ("left_shelf.csv", "audit.csv", "summary.json"):
        assert read(out1 / name) == read(out2 / name)


def test_box_on_neumann_catalog(tmp_path, capsys):
    out = tmp_path / "out"
    code = run([
        "box", "harmonic-neumann", "--out", str(out),
        "--x-steps", "400", "--lambda-steps", "120", "--lambda", "1", "50",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # pi^2 and 4 pi^2 lie inside (1, 50); zero was excluded on purpose
    assert payload["lower_bound"] == 2
    assert payload["ind_bottom"] == 0 and payload["ind_right"] == 0
    assert (out / "box.svg").exists()
    assert (out / "shelf_left.csv").exists()
    svg = read(out / "box.svg").decode()
    assert svg.startswith("<svg") and "<line" in svg


def test_box_dirichlet_right_exits_2(small_harmonic_config, tmp_path, capsys):
    # Dirichlet space at x = 1: the second form dies on the whole top shelf,
    # so the rectangle assembly refuses with the invariance exit code
    assert run(["box", small_harmonic_config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invariance" in err and "top" in err


def test_blow_up_exits_3(tmp_path, capsys):
    doc = {
        "kind": "second-order",
        "l": 1,
        "B": [1.0],
        "V": [["10000000"]],
        "W": [["0"]],
        "P": "neumann",
        "Q": "neumann",
        "lambda": [0.0, 1.0],
        "x_steps": 300,
        "lambda_steps": 20,
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert run(["left-shelf", str(path), "--out", str(tmp_path),
                "--no-rescale"]) == 3
    assert "blow-up" in capsys.readouterr().err


def test_stiff_left_shelf_with_rescale(tmp_path):
    # RK4 amplifies by about 4e6 per step here, so a chain of unscaled step
    # matrices overflows within a few dozen steps; with rescaling the run
    # must stay finite and find no crossing, as the step-by-step loop does.
    doc = {
        "kind": "second-order",
        "l": 1,
        "B": [1],
        "V": [["100000000"]],
        "W": [["0"]],
        "P": "neumann",
        "Q": "neumann",
        "lambda": [0, 1],
        "x_steps": 100,
        "lambda_steps": 20,
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert run(["left-shelf", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "summary.json"))
    assert summary["count"] == 0


def test_invariance_command_with_scan(tmp_path, capsys):
    import math

    out = tmp_path / "inv"
    code = run([
        "invariance", "harmonic-neumann", "--out", str(out), "--scan",
        "--x-steps", "300", "--lambda-steps", "80", "--lambda", "1", "30",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "constants" in payload and "scan" in payload
    # both first components vanish together at x = 1 - pi/(2 sqrt(30)),
    # lambda = (pi / (2x))^2: a genuine transversal loss point, index 0
    x_ref = 1.0 - math.pi / (2 * math.sqrt(30.0))
    lam_ref = (math.pi / (2 * x_ref)) ** 2
    pts = payload["scan"]["loss_points"]
    assert len(pts) == 1
    assert pts[0]["x_star"] == pytest.approx(x_ref, abs=1e-3)
    assert pts[0]["lambda_star"] == pytest.approx(lam_ref, abs=2e-3)
    assert pts[0]["local_m"] == 0
    assert (out / "rho_grid.csv").exists()
    assert (out / "rho_heatmap.svg").exists()
    grid_header = read(out / "rho_grid.csv").decode().splitlines()[0]
    assert grid_header == "lambda,x,rho"


def test_lambda_override_validated(tmp_path, capsys):
    for lam in (["3", "1"], ["-5", "inf"], ["0", "nan"]):
        out = tmp_path / "_".join(lam)
        assert run(["box", "harmonic-neumann", "--lambda", *lam, "--out", str(out)]) == 1
        assert "need finite lambda1 < lambda2" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flag", ["--x-steps", "--lambda-steps"])
@pytest.mark.parametrize("value", ["0", "1", "-5"])
def test_grid_size_override_validated(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["left-shelf", "harmonic-neumann", flag, value, "--out", str(out)]) == 1
    assert "grid resolutions must be at least 2" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_negative_refine_rounds_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["invariance", "harmonic-neumann", "--scan", "--refine", "-1",
                "--out", str(out)]) == 1
    assert "--refine must be at least 0" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


# The example2 shape with a stiff potential: column rescaling lets the two
# columns of each frame collapse onto the dominant mode.
STIFF = {
    "kind": "second-order",
    "l": 2,
    "B": [1.0, 1.0],
    "V": [["2500", "30*sin(5*x)"], ["x", "400"]],
    "W": [["0", "0"], ["0", "0"]],
    "P": "neumann",
    "Q": "neumann",
    "lambda": [-5.0, 1.0],
}


@pytest.mark.parametrize("command", ["box", "left-shelf", "invariance"])
def test_collapsed_frames_exit_2(command, tmp_path, capsys):
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(STIFF))
    out = tmp_path / "out"
    code = run([command, str(path), "--lambda-steps", "60", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "collapsed" in captured.err or "rank-deficient" in captured.err
    assert "Traceback" not in captured.err
    assert not (out / "summary.json").exists()


def test_rank_deficient_boundary_frame_exits_2(tmp_path, capsys):
    # P's columns are parallel to within 1e-10: a squared volume ratio of
    # 1e-20, below the collapse floor, so the frame is refused on loading
    doc = {**STIFF, "V": [["0", "0"], ["0", "0"]],
           "P": [[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["left-shelf", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rank-deficient frame" in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_linalg_error_exits_2(monkeypatch, tmp_path, capsys):
    import numpy as np

    def singular(problem):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "constants_report", singular)
    assert run(["invariance", "harmonic-neumann", "--out", str(tmp_path)]) == 2
    assert "Singular matrix" in capsys.readouterr().err


def test_expression_eval_error_exits_1(tmp_path, capsys):
    doc = {
        "kind": "second-order",
        "l": 1,
        "V": [["x^(-1)"]],
        "W": [["0"]],
        "lambda": [0.0, 1.0],
        "x_steps": 100,
        "lambda_steps": 20,
    }
    path = tmp_path / "recip.json"
    path.write_text(json.dumps(doc))
    assert run(["box", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid power" in err


def test_overflowing_call_exits_1(tmp_path, capsys):
    # exp(1000 x) overflows near x = 0.71: refused as an expression error,
    # like an invalid power, before any propagation and without a numpy warning
    doc = {
        "kind": "second-order",
        "l": 1,
        "V": [["exp(1000*x)"]],
        "W": [["0"]],
        "lambda": [0.0, 1.0],
        "x_steps": 100,
        "lambda_steps": 20,
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["left-shelf", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite value of exp" in err


def test_exponent_form_negative_bounds_are_values(tmp_path, capsys):
    # argparse on its own reads -2.5e0 as an option string
    argv = ["box", "example2", "--x-steps", "200", "--lambda-steps", "60", "--out"]
    assert run(argv + [str(tmp_path / "exp"), "--lambda", "-2.5e0", "1e0"]) == 0
    assert run(argv + [str(tmp_path / "dec"), "--lambda", "-2.5", "1"]) == 0
    assert read(tmp_path / "exp" / "summary.json") == read(tmp_path / "dec" / "summary.json")


@pytest.mark.parametrize("argv", [["box"], ["box", "example2", "--bogus"]])
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    # 2 is the invariance-violation code; a usage error is a 1, like a config error
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: renosc") and "error:" in err
    assert not (tmp_path / "out").exists()
