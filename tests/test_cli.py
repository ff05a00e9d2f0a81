import json

import pytest

from hardysym.cli import main


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
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("minimize: initial=") and " final=" in summary
    payload = json.loads((tmp_path / "minimize_trace.json").read_text())
    assert payload["schema_version"] == 2
    assert isinstance(payload["symmetry_deviation"], float)


@pytest.mark.parametrize(
    "args",
    [
        ["constant", "--seed", "1"],
        ["constant", "--refine", "1"],
        ["eps-sweep", "--seed", "1"],
        ["eps-sweep", "--refine", "1"],
        ["split-demo", "--seed", "1"],
        ["split-demo", "--refine", "1"],
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
    [("constant", "refine"), ("properties", "format"), ("minimize", "max_iters")],
)
def test_unknown_config_key_rejected(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code = run([command, "--config", str(cfg)], tmp_path)
    assert code == 2
    assert key in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "args, clause",
    [
        (["constant", "--p", "1", "--alpha", "0", "--k", "3"], "p > 1"),
        (["minimize", "--N", "4", "--k", "1", "--beta", "1"], "beta < k"),
        (["minimize", "--N", "4", "--k", "3", "--beta", "2.5"], "beta <= p"),
        (["minimize", "--N", "3", "--p", "3", "--beta", "1", "--k", "2"], "p < N"),
        (["symmetrize", "--beta", "-1"], "beta >= 0"),
    ],
)
def test_validation_completeness(tmp_path, capsys, args, clause):
    code = run(args, tmp_path)
    assert code == 2
    assert clause in capsys.readouterr().err
