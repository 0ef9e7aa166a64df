"""CLI contract tests: exit codes, file outputs, config parsing."""
import json
import multiprocessing
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from driftsim import autodiff, cli, datasets, harness
from driftsim.cli import load_run_config, main
from driftsim.datasets import CsvSchema, load_csv_stream
from driftsim.harness import ExperimentConfig

TINY_CFG = {
    "dataset": {"kind": "moons", "domains": 5, "n_per_domain": 40},
    "methods": ["lastdomain"],
    "seeds": [0],
    "downstream": {"max_epochs": 40},
}

PIPELINE_CFG = {
    **TINY_CFG,
    "methods": ["coda"],
    "predictor": {"layers": 2, "latent_dim": 3, "hidden_dim": 6,
                  "max_epochs": 30, "patience": 10},
    "simulator": {"encoder_dim": 8, "encoder_layers": 1, "decoder_dim": 8,
                  "decoder_layers": 1, "latent_dim": 2, "batch_size": 8,
                  "regularizer_draws": 16, "warmup_epochs": 2,
                  "max_epochs": 6, "patience": 6},
}


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_moons_writes_domains_and_manifest(tmp_path):
    out = str(tmp_path)
    assert main(["gen-moons", "--domains", "3", "--n", "20", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["moons_domain_00.csv", "moons_domain_01.csv",
                     "moons_domain_02.csv", "moons_manifest.json"]
    manifest = json.loads((tmp_path / "moons_manifest.json").read_text())
    assert manifest["domains"] == 3
    assert len(manifest["files"]) == 3


def test_gen_moons_is_byte_reproducible(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["gen-moons", "--domains", "3", "--n", "20",
                     "--seed", "7", "--out", out]) == 0
    for name in os.listdir(a):
        if name.endswith(".csv"):
            assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


def test_gen_moons_output_round_trips(tmp_path):
    out = str(tmp_path)
    main(["gen-moons", "--domains", "3", "--n", "20", "--out", out])
    combined = tmp_path / "all.csv"
    parts = [(tmp_path / f"moons_domain_{i:02d}.csv").read_text().splitlines()
             for i in range(3)]
    combined.write_text("\n".join(parts[0] + parts[1][1:] + parts[2][1:]) + "\n")
    stream = load_csv_stream(str(combined), CsvSchema(domain_col="t",
                                                      label_col="y"))
    assert len(stream.sources) == 2
    assert stream.target.n == 20


def test_gen_moons_honors_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTSIM_OUT", str(tmp_path / "envdir"))
    assert main(["gen-moons", "--domains", "3", "--n", "20"]) == 0
    assert (tmp_path / "envdir" / "moons_manifest.json").exists()


def test_run_writes_report(tmp_path):
    cfg = write_cfg(tmp_path, TINY_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["method"] for r in report["reports"]] == ["lastdomain"]
    entry = report["reports"][0]
    assert entry["metric"] == "mce_percent"
    assert len(entry["seed_values"]) == 1
    assert not any(name.endswith(".tmp") for name in os.listdir(out))


def test_run_artifacts_for_generative_method(tmp_path):
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--artifacts"]) == 0
    names = set(os.listdir(out))
    assert {"report.json", "correlations.csv", "generated_coda_seed0.csv"} <= names
    corr = (tmp_path / "out" / "correlations.csv").read_text().splitlines()
    assert corr[0] == "matrix,row,col,value"
    # 4 source matrices + prediction, 3x3 entries each
    assert len(corr) == 1 + 5 * 9
    gen = (tmp_path / "out" / "generated_coda_seed0.csv").read_text().splitlines()
    assert gen[0] == "t,y,x0,x1"
    assert len(gen) == 1 + 40


def usage_error_in_one_line(capsys, argv, naming: str = "") -> bool:
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    return (code == 2 and err.startswith("error: ") and err.count("\n") == 1
            and naming in err)


def test_run_exit_codes_for_bad_configs(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json)]) == 2
    unknown_key = write_cfg(tmp_path, {**TINY_CFG, "mystery": 1})
    assert main(["run", "--config", unknown_key]) == 2
    unknown_method = write_cfg(tmp_path, {**TINY_CFG, "methods": ["oracle"]})
    assert main(["run", "--config", unknown_method]) == 2
    bad_field = write_cfg(tmp_path, {**TINY_CFG,
                                     "simulator": {"batch_size": 2}})
    assert main(["run", "--config", bad_field]) == 2
    for seeds in (["a"], [True], [0.5], [-1], 3):
        bad_seeds = write_cfg(tmp_path, {**TINY_CFG, "seeds": seeds})
        assert main(["run", "--config", bad_seeds]) == 2
    for rate in ("1", True, None):
        bad_rate = write_cfg(tmp_path, {**TINY_CFG, "sample_rate": rate})
        assert main(["run", "--config", bad_rate]) == 2
    for block, field, value in (("predictor", "layers", "a"),
                                ("downstream", "learning_rate", "0.1"),
                                ("simulator", "lambda_c", "1"),
                                ("downstream", "hidden_dims", 5)):
        bad_type = write_cfg(tmp_path, {**TINY_CFG, block: {field: value}})
        assert main(["run", "--config", bad_type]) == 2
    for key, value in (("predictor", {"learning_rate": 0.0}),
                       ("simulator", {"learning_rate": -1.0}),
                       ("downstream", {"learning_rate": -1.0}),
                       ("downstream", {"hidden_dims": [0]}),
                       ("downstream", {"max_epochs": 0}),
                       ("downstream", {"patience": 0}),
                       ("dataset", {"kind": "moons", "noise_std": float("nan")}),
                       ("predictor", 3), ("dataset", 3), ("dataset", [1]),
                       # asks for more generated rows than memory holds
                       ("sample_rate", 1e300),
                       # per-model seeds come only from "seeds"
                       ("predictor", {"seed": 5}), ("simulator", {"seed": 5}),
                       ("downstream", {"seed": 5})):
        bad_value = write_cfg(tmp_path, {**TINY_CFG, key: value})
        assert usage_error_in_one_line(capsys, ["run", "--config", bad_value])
    bad_norm = write_cfg(tmp_path, {**TINY_CFG, "normalization": "bogus"})
    assert main(["run", "--config", bad_norm]) == 2
    bad_moons = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "moons", "domains": 1}})
    assert main(["run", "--config", bad_moons]) == 2
    # 10 domains x 10 M rows: rejected before any domain is drawn
    huge_moons = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "moons", "n_per_domain": 10_000_000}})
    assert usage_error_in_one_line(capsys, ["run", "--config", huge_moons])
    one_class = tmp_path / "one_class.csv"
    one_class.write_text("t,y,a\n0,0,1.0\n0,1,2.0\n0,1,2.5\n"
                         "1,1,1.5\n1,1,2.5\n2,0,1.1\n2,1,2.1\n")
    single_class = write_cfg(tmp_path, {**TINY_CFG, "methods": ["coda"],
                                        "dataset": {"kind": "csv",
                                                    "path": str(one_class)}})
    assert main(["run", "--config", single_class]) == 2
    missing_csv = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "csv", "path": str(tmp_path / "absent.csv")}})
    assert main(["run", "--config", missing_csv]) == 2
    # non-finite cells are rejected where they are read, by row and column
    good = "t,y,a\n0,0,1.0\n0,1,2.0\n1,0,1.5\n1,1,2.5\n"
    for row, naming in (("inf,0,1.2", "row 6, column 't'"),
                        ("nan,0,1.2", "row 6, column 't'"),
                        ("1,nan,1.2", "row 6, column 'y'"),
                        ("1,0,-inf", "row 6, column 'a'")):
        (tmp_path / "non_finite.csv").write_text(good + row + "\n")
        non_finite = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
            "kind": "csv", "path": str(tmp_path / "non_finite.csv")}})
        assert usage_error_in_one_line(capsys, ["run", "--config", non_finite], naming)
    # so are classification labels other than 0 or 1
    (tmp_path / "bad_label.csv").write_text(good + "2,2,1.2\n2,0,1.3\n")
    bad_label = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "csv", "path": str(tmp_path / "bad_label.csv")}})
    assert usage_error_in_one_line(capsys, ["run", "--config", bad_label],
                                   "label '2' at row 6, column 'y' is not 0 or 1")
    # a file with more usable rows than a stream may hold
    (tmp_path / "long.csv").write_text(good)
    long_csv = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "csv", "path": str(tmp_path / "long.csv")}})
    with monkeypatch.context() as patch:
        patch.setattr(datasets, "MAX_ROWS", 3)
        assert usage_error_in_one_line(capsys, ["run", "--config", long_csv],
                                       "more than 3 usable rows")
    # streams a listed method cannot train on are rejected before the first
    # listed method trains
    trained = []
    monkeypatch.setattr(harness, "_run_seeds", lambda *a: trained.append(a))
    rows = [(t, i) for t in range(5) for i in range(6)]
    rows40 = [(t, i) for t in range(5) for i in range(40)]
    csv_files = {
        "regression.csv": "t,y,a\n" + "".join(
            f"{t},{0.1 * i + t},{0.3 * i - t}\n" for t, i in rows),
        "constant_features.csv": "t,y,a\n" + "".join(
            f"{t},{i % 2},{1.0 if t < 4 else i}\n" for t, i in rows),
        "constant_label.csv": "t,y,a\n" + "".join(
            f"{t},2.0,{0.3 * i - t}\n" for t, i in rows),
        "constant_in_one_domain.csv": "t,y,a,b\n" + "".join(
            f"{t},{i % 2},{1.0 if t == 0 else 0.1 * i + t},{0.2 * i - t}\n"
            for t, i in rows),
        # feature b is constant over the class-0 rows of domain 1
        "flat_class_feature.csv": "t,y,a,b\n" + "".join(
            f"{t},{i % 2},{0.05 * i + 0.1 * t},"
            f"{0.5 if t == 1 and i % 2 == 0 else 0.03 * (7 * i % 40) - 0.1 * t}\n"
            for t, i in rows40),
        # domain 2 holds a single class-1 row
        "lone_class_row.csv": "t,y,a,b\n" + "".join(
            f"{t},{int(i == 0) if t == 2 else i % 2},{0.05 * i + 0.1 * t},"
            f"{0.03 * (7 * i % 40) - 0.1 * t}\n" for t, i in rows40),
    }
    for name, text in csv_files.items():
        (tmp_path / name).write_text(text)
    three_moons = {"kind": "moons", "domains": 3, "n_per_domain": 40}
    csv = lambda name: {"kind": "csv", "path": str(tmp_path / name)}
    for methods, dataset, naming in (
            (["lastdomain", "coda"], three_moons, ""),
            (["lastdomain", "prelim"], three_moons, ""),
            (["lastdomain", "prelim"], {**csv("regression.csv"),
                                        "task": "regression"}, ""),
            (["lastdomain"], csv("constant_features.csv"), ""),
            (["lastdomain"], {**csv("constant_label.csv"), "task": "regression"}, ""),
            (["lastdomain", "coda"], csv("constant_in_one_domain.csv"),
             "domain 0: near-constant column(s) a:"),
            (["lastdomain", "prelim"], csv("flat_class_feature.csv"),
             "domain 1, feature b: bandwidth must be positive"),
            (["lastdomain", "prelim"], csv("lone_class_row.csv"),
             "domain 2, feature a: label class 1 has fewer than 2 rows")):
        untrainable = write_cfg(tmp_path, {**TINY_CFG, "methods": methods,
                                           "dataset": dataset})
        assert usage_error_in_one_line(capsys, ["run", "--config", untrainable],
                                       naming)
    assert trained == []


def test_gen_moons_bad_dataset_is_usage_error(tmp_path, capsys):
    assert main(["gen-moons", "--domains", "1", "--out", str(tmp_path)]) == 2
    assert main(["gen-moons", "--n", "3", "--out", str(tmp_path)]) == 2
    assert usage_error_in_one_line(capsys, [
        "gen-moons", "--n", "2000000", "--domains", "10", "--out", str(tmp_path)])
    assert os.listdir(tmp_path) == []


def test_gen_moons_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    def broken_save(dataset, path):
        with open(path, "w") as fh:
            fh.write("partial")
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli, "save_domain_csv", broken_save)
    with pytest.raises(RuntimeError):
        main(["gen-moons", "--domains", "3", "--n", "20", "--out",
              str(tmp_path)])
    assert os.listdir(tmp_path) == []


def test_run_non_finite_gradient_is_numeric_failure(tmp_path, monkeypatch,
                                                   capsys):
    real = autodiff.evaluate_with_gradients

    def nan_grads(loss_fn, params, inputs):
        loss, grads = real(loss_fn, params, inputs)
        return loss, [np.full_like(g, np.nan) for g in grads]

    monkeypatch.setattr(autodiff, "evaluate_with_gradients", nan_grads)
    # three seeds run in forked workers where two CPUs are usable; the
    # workers inherit the patch and the first failure ends the run
    for seeds in ([0], [0, 1, 2]):
        cfg = write_cfg(tmp_path, {**TINY_CFG, "seeds": seeds})
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []


def test_run_artifacts_reuse_the_run_models(tmp_path, monkeypatch):
    calls = []
    real = harness.train_predictor

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_predictor", counted)
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--artifacts"]) == 0
    assert len(calls) == 1
    # at lambda_c = 0 nothing reads a forecast: none is trained or written
    no_pull = {**PIPELINE_CFG,
               "simulator": {**PIPELINE_CFG["simulator"], "lambda_c": 0.0}}
    cfg = write_cfg(tmp_path, no_pull)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "flat"),
                 "--artifacts"]) == 0
    assert len(calls) == 1
    assert set(os.listdir(tmp_path / "flat")) == {"report.json",
                                                  "generated_coda_seed0.csv"}


def test_load_run_config_defaults_match_pipeline_defaults(tmp_path):
    cfg = write_cfg(tmp_path, {})
    stream, methods, config, out_dir = load_run_config(cfg)
    assert methods == ["coda"]
    assert config.seeds == (0, 1, 2, 3, 4)
    assert config.simulator.learning_rate == pytest.approx(9e-3)
    assert config.simulator.lambda_c == 1.0
    assert config.predictor.learning_rate == pytest.approx(3e-3)
    assert config.downstream.hidden_dims == (50, 50)
    assert config.downstream.learning_rate == pytest.approx(1e-2)
    assert len(stream.sources) == 9
    assert stream.target.n == 200
    assert out_dir is None
    assert config == ExperimentConfig()
    # a file that spells out every default builds the same config
    explicit = json.loads(json.dumps(asdict(ExperimentConfig())))
    assert load_run_config(write_cfg(tmp_path, explicit))[2] == ExperimentConfig()


def test_verify_bound_outputs_and_exit(tmp_path, capsys):
    out = str(tmp_path / "bounds.json")
    assert main(["verify-bound", "--pairs", "8", "--seed", "3",
                 "--out", out]) == 0
    rows = json.loads((tmp_path / "bounds.json").read_text())
    assert len(rows) == 8
    assert all(not r["violated"] and r["moment_deltas_ok"] for r in rows)
    assert all(r["lhs"] <= r["rhs"] + 1e-9 for r in rows)
    assert main(["verify-bound", "--pairs", "0"]) == 2
    for flags in (["--dims", "0"], ["--dims", "-1"], ["--max-support", "1"],
                  ["--max-support", "2", "--dims", "4"],
                  ["--max-support", "4", "--dims", "4"], ["--seed", "-1"]):
        assert usage_error_in_one_line(capsys, ["verify-bound", "--pairs", "2",
                                                *flags]), flags
    # the smallest accepted support: max(3, dims + 1) points
    assert main(["verify-bound", "--pairs", "4", "--dims", "2",
                 "--max-support", "3"]) == 0


def test_verify_bound_threads_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify-bound", "--pairs", "12", "--out", a]) == 0
    assert main(["verify-bound", "--pairs", "12", "--out", b]) == 0
    assert json.loads(Path(a).read_text()) == json.loads(Path(b).read_text())


def test_sweep_writes_curve(tmp_path):
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--param", "sample_rate",
                 "--values", "0.5,1.0", "--out", out]) == 0
    lines = (tmp_path / "out" / "sweep_sample_rate.csv").read_text().splitlines()
    assert lines[0] == "value,mean,std"
    assert len(lines) == 3
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.5, 1.0]
    rows = json.loads((tmp_path / "out" / "sweep_sample_rate.json").read_text())
    assert rows[0]["validation"] is None


def test_sweep_validate_adds_columns(tmp_path):
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--param", "sample_rate",
                 "--values", "1.0", "--validate", "--out", out]) == 0
    lines = (tmp_path / "out" / "sweep_sample_rate.csv").read_text().splitlines()
    assert lines[0] == "value,mean,std,val_mean,val_std"


def test_sweep_usage_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    assert main(["sweep", "--config", cfg, "--param", "sample_rate",
                 "--values", ""]) == 2
    assert main(["sweep", "--config", cfg, "--param", "sample_rate",
                 "--values", "a,b"]) == 2
    for param in ("lambda_c", "sample_rate"):
        for value in ("nan", "inf", "-inf"):
            assert usage_error_in_one_line(capsys, [
                "sweep", "--config", cfg, "--param", param,
                f"--values={value}", "--out", str(tmp_path / "out")]), (param, value)
    assert usage_error_in_one_line(capsys, [
        "sweep", "--config", cfg, "--param", "sample_rate", "--values=1e300",
        "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--param", "epochs", "--values", "1"])
    assert exc.value.code == 2
    # the curve has no method column, so a second method would go unswept
    two = write_cfg(tmp_path, {**PIPELINE_CFG, "methods": ["coda", "coda-without-C"]})
    assert usage_error_in_one_line(capsys, [
        "sweep", "--config", two, "--param", "sample_rate", "--values", "1",
        "--out", str(tmp_path / "out")], naming="['coda', 'coda-without-C']")
    assert not (tmp_path / "out" / "sweep_sample_rate.csv").exists()


def test_sweep_refuses_a_parameter_the_method_never_reads(tmp_path, capsys,
                                                         monkeypatch):
    trained = []
    monkeypatch.setattr(harness, "_run_seeds", lambda *a: trained.append(a))
    out = tmp_path / "out"
    for method, param in (("lastdomain", "sample_rate"), ("offline", "lambda_c"),
                          ("coda-without-C", "lambda_c")):
        cfg = write_cfg(tmp_path, {**TINY_CFG, "methods": [method]})
        assert usage_error_in_one_line(capsys, [
            "sweep", "--config", cfg, "--param", param, "--values", "0,1",
            "--out", str(out)], naming=f"{method} never reads {param}")
    assert trained == [] and not out.exists()


def test_run_survives_a_closed_stdout(tmp_path, monkeypatch):
    # a pipe whose reader has gone: every write raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    cfg = write_cfg(tmp_path, TINY_CFG)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        with pytest.raises(BrokenPipeError):
            print("probe", flush=True)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        print("later lines go nowhere", flush=True)
        monkeypatch.undo()
    assert json.loads((tmp_path / "out" / "report.json").read_text())["reports"]


def test_run_trains_coda_without_a_forecast_on_two_sources(tmp_path, capsys):
    three = {**PIPELINE_CFG, "dataset": {**TINY_CFG["dataset"], "domains": 3}}
    no_pull = {**three, "simulator": {**PIPELINE_CFG["simulator"], "lambda_c": 0.0}}
    for cfg in ({**no_pull, "methods": ["coda"]},
                {**three, "methods": ["coda-without-C"]}):
        out = tmp_path / cfg["methods"][0]
        assert main(["run", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        (entry,) = json.loads((out / "report.json").read_text())["reports"]
        assert entry["config"]["simulator"]["lambda_c"] == 0.0
    assert usage_error_in_one_line(capsys, [
        "run", "--config", write_cfg(tmp_path, three)],
        naming="coda needs at least 3 source domains, got 2")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
