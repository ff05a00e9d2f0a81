import json

import numpy as np
import pytest

from hardysym import GridFunction
from hardysym.cli import DEFAULTS, build_parser, main

SCALAR_SETTINGS = [
    (command, key, default)
    for command, defaults in DEFAULTS.items()
    for key, default in defaults.items()
    if default is not None and not isinstance(default, list)
]
LIST_SETTINGS = [
    (command, key)
    for command, defaults in DEFAULTS.items()
    for key, default in defaults.items()
    if default is None or isinstance(default, list)
]


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path), *extra])


def test_constant_classical_value(tmp_path, capsys):
    code = run(["constant", "--p", "2", "--alpha", "-2", "--k", "3"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[0] == "4"
    csv = (tmp_path / "constant.csv").read_text().splitlines()
    assert csv[0] == "p,alpha,k,constant"
    assert csv[1].endswith(",4")


def test_constant_json_format(tmp_path):
    code = run(["constant", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "constant.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["constant"] == pytest.approx(4.0 / 9.0)


def test_constant_validation_error_names_clause(tmp_path, capsys):
    code = run(["constant", "--p", "2", "--alpha", "-5", "--k", "3"], tmp_path)
    assert code == 2
    assert "alpha + k > 0" in capsys.readouterr().err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_flag_or_config_value(tmp_path, capsys):
    # a flag or config value of one call must not become the next call's default
    assert run(["constant", "--p", "3", "--k", "3"], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["constant"], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "%.17g" % (4.0 / 9.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3.0}))
    assert run(["constant", "--config", str(cfg)], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["constant"], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "%.17g" % (4.0 / 9.0)
    assert "p,alpha,k,constant\n2,0,3," in (tmp_path / "constant.csv").read_text()


def test_reused_parser_still_rejects_and_recovers(tmp_path, capsys):
    build_parser()
    with pytest.raises(SystemExit) as exc:
        run(["constant", "--nope", "1"], tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert run(["constant", "--alpha", "-2"], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_missing_out_dir_is_io_error(tmp_path, capsys):
    code = main(["constant", "--out", str(tmp_path / "missing")])
    assert code == 1
    assert "I/O error" in capsys.readouterr().err


def test_eps_sweep_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert main(["eps-sweep", "--out", str(d1)]) == 0
    assert main(["eps-sweep", "--out", str(d2)]) == 0
    assert (d1 / "eps_sweep.csv").read_bytes() == (d2 / "eps_sweep.csv").read_bytes()


def test_eps_sweep_empty_ladder_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps_ladder": []}))
    code = run(["eps-sweep", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert "ladder" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2.0, "alpha": 0.0, "k": 3}))
    code = run(["constant", "--config", str(cfg), "--alpha", "-2"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "4"


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    code = run(["constant", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert main(["constant", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 1


def test_minimize_deterministic_trace(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    args = ["minimize", "--n", "24", "--max-iter", "150", "--seed", "7"]
    assert main([*args, "--out", str(d1)]) == 0
    assert main([*args, "--out", str(d2)]) == 0
    assert (d1 / "minimize_trace.json").read_bytes() == (d2 / "minimize_trace.json").read_bytes()
    assert (d1 / "minimize_final.csv").read_bytes() == (d2 / "minimize_final.csv").read_bytes()


def test_radial_problem_k_equals_n(tmp_path):
    # k = N has no t-axis: the commands run the radial problem
    assert run(["symmetrize", "--N", "3", "--k", "3", "--beta", "0"], tmp_path) == 0
    assert run(["minimize", "--N", "3", "--k", "3", "--beta", "0"], tmp_path) == 0
    quotients = json.loads((tmp_path / "minimize_trace.json").read_text())["quotients"]
    assert all(b <= a for a, b in zip(quotients, quotients[1:]))


def test_minimize_summary_and_trace_schema(tmp_path, capsys):
    assert run(["minimize", "--n", "16", "--max-iter", "20"], tmp_path) == 0
    summary, status = capsys.readouterr().out.splitlines()
    assert summary.startswith("minimize: initial=") and " final=" in summary
    payload = json.loads((tmp_path / "minimize_trace.json").read_text())
    assert payload["schema_version"] == 3
    assert isinstance(payload["symmetry_deviation"], float)
    assert len(payload["residuals"]) == len(payload["quotients"])
    # the status line ends on the last residual, so a stop above tol shows
    assert status.startswith(f"converged={payload['converged']} stop_reason={payload['stop_reason']} ")
    assert status.endswith(f" residual={payload['residuals'][-1]:.3e}")


@pytest.mark.parametrize(
    "args",
    [
        ["constant", "--seed", "1"],
        ["constant", "--refine", "1"],
        ["eps-sweep", "--seed", "1"],
        ["eps-sweep", "--refine", "1"],
        ["split-demo", "--seed", "1"],
        ["split-demo", "--refine", "1"],
        ["split-demo", "--p", "2.5"],  # the demo's oracle is the p = 2 eigenvalue
        ["product-sweep", "--seed", "1"],
        ["minimize", "--format", "csv"],
        ["properties", "--format", "csv"],
        ["properties", "--refine", "1"],
    ],
)
def test_unused_flag_rejected(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args, tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("constant", "refine"), ("properties", "format"), ("minimize", "max_iters"), ("split-demo", "p")],
)
def test_unknown_config_key_rejected(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code = run([command, "--config", str(cfg)], tmp_path)
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("symmetrize", "n", "64"),
        ("symmetrize", "n", 64.0),
        ("minimize", "max_iter", True),
        ("symmetrize", "beta", "1"),
        ("constant", "p", None),
        ("symmetrize", "format", "xml"),
        ("constant", "out", 5),
        ("product-sweep", "refine", -1),
        ("split-demo", "lambda_scales", 5),
        ("split-demo", "lambda_scales", ["a"]),
        ("product-sweep", "ladder", [[1]]),
        ("product-sweep", "ladder", 3),
        ("eps-sweep", "eps_ladder", "x"),
        ("eps-sweep", "eps_ladder", [0.1, "a"]),
        # the right type but out of range: named by key, not by the grid it would break
        ("split-demo", "lambda_scales", [1.0, 0.0]),
        ("split-demo", "lambda_scales", [1.0, -4.0]),
        ("split-demo", "lambda_scales", [-1]),
        ("product-sweep", "ladder", [[0.1, -1]]),
        ("product-sweep", "ladder", [[0.0, 100.0]]),
        # widths whose oracle (2n / w)^2 sin^2(pi / 2n) is not a finite positive float
        ("split-demo", "omega_width", -1.0),
        ("split-demo", "omega_width", 0.0),
        ("split-demo", "omega_width", 1e-160),
        ("split-demo", "omega_width", 1e300),
        ("split-demo", "omega_width", float("nan")),
        # a ladder so wide that the x2-grid's first cell misses the narrowest bump
        ("split-demo", "lambda_scales", [1.0, 1e6]),
    ],
)
def test_ill_typed_config_value_rejected(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = run([command, "--config", str(cfg)], tmp_path)
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, key, default", SCALAR_SETTINGS)
def test_every_scalar_setting_is_a_flag(command, key, default):
    if isinstance(default, str):
        value = "json" if key == "format" else "elsewhere"
    else:
        value = default + 1
    args = build_parser().parse_args([command, "--" + key.replace("_", "-"), str(value)])
    assert getattr(args, key) == value
    assert type(getattr(args, key)) is type(default)


@pytest.mark.parametrize("command, key", LIST_SETTINGS)
def test_list_setting_is_config_only(capsys, command, key):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--" + key.replace("_", "-"), "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["product-sweep", "symmetrize", "minimize"])
def test_negative_refine_flag_rejected(tmp_path, capsys, command):
    code = run([command, "--refine", "-1"], tmp_path)
    assert code == 2
    assert "refine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, key",
    [
        (["symmetrize", "--seed", "-1"], "seed"),
        (["minimize", "--seed", "-1"], "seed"),
        (["properties", "--seed", "-1"], "seed"),
        (["properties", "--trials", "-1"], "trials"),
        (["minimize", "--max-iter", "-1"], "max_iter"),
    ],
)
def test_negative_count_flag_rejected(tmp_path, capsys, args, key):
    code = run(args, tmp_path)
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, key",
    [
        (["symmetrize", "--n", "1"], "n"),
        (["minimize", "--n", "1"], "n"),
        (["product-sweep", "--n-s", "0"], "n_s"),
        (["product-sweep", "--n-t", "0"], "n_t"),
        (["product-sweep", "--n-t", "1"], "n_t"),
        (["product-sweep", "--n-t", "8"], "n_t"),
        # R = exp(log_r_max): at 240 the cell measures overflow to nan, at 1000 R itself
        (["product-sweep", "--log-r-max", "240"], "log_r_max"),
        (["product-sweep", "--log-r-max", "1000"], "log_r_max"),
        # R = exp(log_r_max) <= 1 leaves the plateau family no room
        (["product-sweep", "--log-r-max", "-5", "--n-s", "64", "--n-t", "16"], "log_r_max"),
        (["product-sweep", "--log-r-max", "0", "--n-s", "64", "--n-t", "16"], "log_r_max"),
    ],
)
def test_out_of_range_grid_flag_named(tmp_path, capsys, args, key):
    # rejected by key, not by the degenerate quotient the grid would give
    code = run(args, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.split()[1] == key


def test_ladder_overflowing_the_t_grid_rejected(tmp_path, capsys):
    # the t-grid reaches 1.05 max(lambda): at 1e300 its cell measures overflow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ladder": [[0.1, 1e300]], "n_s": 64, "n_t": 16}))
    code = run(["product-sweep", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert capsys.readouterr().err.split()[1] == "ladder"
    assert not list(tmp_path.glob("product_sweep.*"))


def test_config_int_accepted_for_float_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "alpha": -2, "k": 3}))
    assert run(["constant", "--config", str(cfg)], tmp_path) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "4"


def test_minimize_invalid_params(tmp_path, capsys):
    code = run(["minimize", "--beta", "3"], tmp_path)
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_symmetrize_runs(tmp_path, capsys):
    code = run(["symmetrize", "--n", "32", "--seed", "5"], tmp_path)
    assert code == 0
    assert (tmp_path / "symmetrize.csv").exists()
    assert "symmetrize" in capsys.readouterr().out


def test_split_demo_runs(tmp_path):
    code = run(["split-demo"], tmp_path)
    assert code == 0
    lines = (tmp_path / "split_demo.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 ladder points


def test_product_sweep_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_s": 512, "n_t": 128}))
    code = run(["product-sweep", "--config", str(cfg), "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "product_sweep.json").read_text())
    assert payload["schema_version"] == 1
    assert len(payload["rows"]) == 5


def test_product_sweep_refined_twice(tmp_path):
    # --refine 2 is 16384 x 2048 cells, affordable because the p = 2 rungs are
    # taken from 1-D factors; the finer ladder sits closer to ((k - p)/p)^p
    best = {}
    for refine in (0, 2):
        out = tmp_path / str(refine)
        out.mkdir()
        assert run(["product-sweep", "--refine", str(refine), "--format", "json"], out) == 0
        rows = json.loads((out / "product_sweep.json").read_text())["rows"]
        quotients = [row["quotient"] for row in rows]
        assert len(rows) == 5
        assert all(a > b for a, b in zip(quotients, quotients[1:]))
        assert all(q > 0.25 for q in quotients)  # ((k - p)/p)^p at the defaults k = 3, p = 2
        best[refine] = quotients[-1] - rows[-1]["target"]
    assert 0 < best[2] < best[0]


def test_properties_clean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2000}))
    code = run(["properties", "--config", str(cfg)], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "properties.json").read_text())
    assert payload["convexity_violations"] == 0


def test_properties_violation_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr("hardysym.cli.convexity_bound", lambda s, t, lam, p: (2.0, 1.0))
    code = run(["properties", "--trials", "10"], tmp_path)
    assert code == 3
    payload = json.loads((tmp_path / "properties.json").read_text())
    assert payload["convexity_violations"] == 10


def _not_equimeasurable(values, measures):
    return np.zeros_like(values)


def _not_idempotent(u):
    # each application adds one to the last cell, so u** != u****
    values = np.array(u.values)
    values[-1] += 1.0
    return GridFunction(u.grid, values)


@pytest.mark.parametrize(
    "name, fault, counter",
    [
        ("decreasing_rearrangement_1d", _not_equimeasurable, "equimeasurability_failures"),
        ("double_star", _not_idempotent, "idempotence_failures"),
        ("hardy_littlewood_check", lambda u, v: (1.0, 0.5), "hardy_littlewood_violations"),
    ],
)
def test_properties_rearrangement_counters_fire(tmp_path, monkeypatch, name, fault, counter):
    monkeypatch.setattr(f"hardysym.cli.{name}", fault)
    code = run(["properties", "--trials", "10"], tmp_path)
    assert code == 3
    payload = json.loads((tmp_path / "properties.json").read_text())
    assert payload.pop("schema_version") == 1
    assert payload == {**dict.fromkeys(payload, 0), counter: 10}


@pytest.mark.parametrize(
    "args, clause",
    [
        (["constant", "--p", "1", "--alpha", "0", "--k", "3"], "p > 1"),
        (["minimize", "--N", "4", "--k", "1", "--beta", "1"], "beta < k"),
        (["minimize", "--N", "4", "--k", "3", "--beta", "2.5"], "beta <= p"),
        (["minimize", "--N", "3", "--p", "3", "--beta", "1", "--k", "2"], "p < N"),
        (["symmetrize", "--beta", "-1"], "beta >= 0"),
        (["constant", "--p", "nan"], "p > 1"),
        (["constant", "--p", "inf"], "p finite"),
        (["constant", "--alpha", "nan"], "alpha finite"),
        (["constant", "--alpha", "inf"], "alpha finite"),
        (["constant", "--k", "0", "--alpha", "1"], "k >= 1"),
        (["constant", "--k", "-3", "--alpha", "5"], "k >= 1"),
        (["eps-sweep", "--p", "inf"], "p finite"),
        (["eps-sweep", "--alpha", "inf"], "alpha finite"),
    ],
)
def test_validation_completeness(tmp_path, capsys, args, clause):
    code = run(args, tmp_path)
    assert code == 2
    assert clause in capsys.readouterr().err
