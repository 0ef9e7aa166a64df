"""CLI contract tests: exit codes, file outputs, config parsing."""
import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsim import autodiff, bounds, cli, datasets, density_baseline, harness
from driftsim.cli import load_run_config, main
from driftsim.datasets import load_csv_stream
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
    stream = load_csv_stream(str(combined), domain_col="t", label_col="y")
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
                       # a moons key takes its default's type, as a model field does
                       ("dataset", {"kind": "moons", "noise_std": True}),
                       ("dataset", {"kind": "moons", "seed": True}),
                       ("predictor", 3), ("dataset", 3), ("dataset", [1]),
                       # asks for more generated rows than memory holds
                       ("sample_rate", 1e300),
                       # per-model seeds come only from "seeds"
                       ("predictor", {"seed": 5}), ("simulator", {"seed": 5}),
                       ("downstream", {"seed": 5}),
                       # the output directory comes from --out or DRIFTSIM_OUT
                       ("output_dir", 5), ("output_dir", str(tmp_path / "cfg-out"))):
        bad_value = write_cfg(tmp_path, {**TINY_CFG, key: value})
        assert usage_error_in_one_line(capsys, ["run", "--config", bad_value])
    bool_seed = write_cfg(tmp_path, {**TINY_CFG, "dataset": {"kind": "moons", "seed": True}})
    assert usage_error_in_one_line(capsys, ["run", "--config", bool_seed],
                                   "dataset: seed must be an integer, got True")
    # prior draws that no decoder layer could hold: refused before the
    # forecaster trains
    huge_draws = write_cfg(tmp_path, {**TINY_CFG, "methods": ["coda"],
                                      "simulator": {"regularizer_draws": 10**18}})
    assert usage_error_in_one_line(capsys, ["run", "--config", huge_draws],
                                   "simulator: regularizer_draws=1000000000000000000 ")
    # prelim KDE kernels past harness.MAX_KERNEL_CELLS (3 truth domains x 2
    # features x 256 grid points x 8,000 rows, two cells each): refused before
    # any truth-side KDE is built, nothing trained and no output directory made
    built = []
    huge_prelim = write_cfg(tmp_path, {**TINY_CFG, "methods": ["prelim"], "dataset": {
        "kind": "moons", "domains": 5, "n_per_domain": 8000}})
    out = tmp_path / "prelim-out"
    with monkeypatch.context() as patch:
        patch.setattr(density_baseline, "_truth_side", lambda *a: built.append(a))
        assert usage_error_in_one_line(
            capsys, ["run", "--config", huge_prelim, "--out", str(out)],
            "prelim: 3 truth domains x 2 features x 256 grid points x 8000 generated rows "
            "compute 24,576,000 kernel cells per epoch")
    assert built == [] and not out.exists()
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
    # a column named twice in the header, or given two roles by the schema
    # (with the label among the features, lastdomain used to score 0.0)
    body = "".join(f"{t},{i % 2},{0.1 * i + t},{0.2 * i - t}\n"
                   for t in range(3) for i in range(4))
    (tmp_path / "twice.csv").write_text("t,y,a,a\n" + body)
    (tmp_path / "roles.csv").write_text("t,y,a,b\n" + body)
    for block, naming in (({"path": str(tmp_path / "twice.csv")}, "column 'a' twice"),
                          ({"path": str(tmp_path / "roles.csv"),
                            "feature_cols": ["y", "a"]}, "column 'y' twice")):
        twice = write_cfg(tmp_path, {**TINY_CFG, "methods": ["lastdomain"],
                                     "dataset": {"kind": "csv", **block}})
        assert usage_error_in_one_line(capsys, ["run", "--config", twice], naming)
    # so are classification labels other than 0 or 1
    (tmp_path / "bad_label.csv").write_text(good + "2,2,1.2\n2,0,1.3\n")
    bad_label = write_cfg(tmp_path, {**TINY_CFG, "dataset": {
        "kind": "csv", "path": str(tmp_path / "bad_label.csv")}})
    assert usage_error_in_one_line(capsys, ["run", "--config", bad_label],
                                   "label '2' at row 6, column 'y' is not 0 or 1")
    # each csv key takes the type of its load_csv_stream default; path has
    # none, so it is required
    (tmp_path / "typed.csv").write_text(good)
    typed = str(tmp_path / "typed.csv")
    for block, naming in (({"path": typed, "feature_cols": "x0"},
                           "dataset: feature_cols must be a list of strings, got 'x0'"),
                          ({"path": typed, "task": 1}, "dataset: task must be a string, got 1"),
                          ({"path": 5}, "dataset: path must be a string, got 5"),
                          ({"path": typed, "domain_col": True},
                           "dataset: domain_col must be a string, got True"),
                          ({}, "dataset: csv needs path"),
                          # an unknown task is refused before the file is opened
                          ({"path": str(tmp_path / "absent.csv"), "task": "bogus"},
                           "dataset: task must be one of 'classification' or "
                           "'regression', got 'bogus'")):
        untyped = write_cfg(tmp_path, {**TINY_CFG, "dataset": {"kind": "csv", **block}})
        assert usage_error_in_one_line(capsys, ["run", "--config", untyped], naming)
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


@pytest.mark.parametrize("command", ["gen-moons", "run", "verify-bound", "sweep"])
def test_output_path_under_a_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                                 command):
    trained = []
    monkeypatch.setattr(harness, "_run_seeds", lambda *a: trained.append(a))
    blocker = tmp_path / "F"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, PIPELINE_CFG)
    argv = {"gen-moons": ["--domains", "3", "--n", "20", "--out", str(blocker)],
            "run": ["--config", cfg, "--out", str(blocker)],
            "verify-bound": ["--pairs", "2", "--out", str(blocker / "x.json")],
            "sweep": ["--config", cfg, "--param", "sample_rate", "--values", "1",
                      "--out", str(blocker / "sub")]}[command]
    assert usage_error_in_one_line(capsys, [command, *argv], naming=str(blocker))
    assert trained == [] and blocker.read_text() == ""


def test_output_file_onto_a_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "rows.json"
    target.mkdir()
    assert usage_error_in_one_line(capsys, [
        "verify-bound", "--pairs", "2", "--out", str(target)],
        naming=f"cannot write {target}")
    assert os.listdir(tmp_path) == ["rows.json"] and os.listdir(target) == []


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

    def nan_grads(loss_fn, params, grads):
        loss = real(loss_fn, params, grads)
        for view in grads:
            view.fill(np.nan)
        return loss

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


def test_run_out_of_memory_is_usage_error(tmp_path, monkeypatch, capsys):
    # a model size that no allocation can hold; raised here, never allocated
    error = MemoryError("Unable to allocate 21.8 TiB for an array")

    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "train_downstream", no_memory)
    run = ["run", "--config", write_cfg(tmp_path, TINY_CFG), "--out", str(tmp_path / "out")]
    assert usage_error_in_one_line(capsys, run, "error: out of memory: Unable to allocate")
    error = MemoryError()  # a huge layer count ends in a MemoryError with no message
    assert usage_error_in_one_line(capsys, run, "error: out of memory: allocation failed")
    # three seeds run in forked workers where two CPUs are usable
    cfg = write_cfg(tmp_path, {**TINY_CFG, "seeds": [0, 1, 2]})
    assert usage_error_in_one_line(capsys, ["run", "--config", cfg, "--out",
                                            str(tmp_path / "out")], "out of memory")
    assert multiprocessing.active_children() == []


def test_oversized_models_are_refused_before_training(tmp_path, capsys, monkeypatch):
    # sizes numpy cannot describe (10^18) or allocate; counted, never built
    trained = []
    monkeypatch.setattr(harness, "_run_seeds", lambda *a: trained.append(a))
    out = tmp_path / "out"
    for method, block, field, value in (("coda-without-C", "simulator", "encoder_dim", 10**18),
                                        ("coda", "simulator", "encoder_dim", 10**12),
                                        ("coda", "predictor", "hidden_dim", 10**10),
                                        ("coda", "predictor", "layers", 10**11),
                                        ("lastdomain", "downstream", "hidden_dims", [10**7])):
        cfg = write_cfg(tmp_path, {**TINY_CFG, "methods": [method], block: {field: value}})
        shown = tuple(value) if isinstance(value, list) else value
        for argv in (["run"], ["sweep", "--param", "sample_rate", "--values", "1"]):
            assert usage_error_in_one_line(capsys, [*argv, "--config", cfg, "--out", str(out)],
                                           f"{field}={shown}"), (argv, field)
    assert trained == [] and not out.exists()


def test_run_overflowing_adam_update_is_numeric_failure(tmp_path, capsys):
    # at this learning rate the forecaster's first Adam update overflows
    cfg = write_cfg(tmp_path, {**TINY_CFG, "methods": ["coda"],
                               "predictor": {"learning_rate": 1e308, "max_epochs": 5}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


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
    stream, methods, config = load_run_config(cfg)
    assert methods == ["coda"]
    assert config.seeds == (0, 1, 2, 3, 4)
    assert config.simulator.learning_rate == pytest.approx(9e-3)
    assert config.simulator.lambda_c == 1.0
    assert config.predictor.learning_rate == pytest.approx(3e-3)
    assert config.downstream.hidden_dims == (50, 50)
    assert config.downstream.learning_rate == pytest.approx(1e-2)
    assert len(stream.sources) == 9
    assert stream.target.n == 200
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
                  ["--max-support", "4", "--dims", "4"], ["--seed", "-1"],
                  # support x dims cells past MAX_PAIR_CELLS; these would need
                  # petabytes, so a missing check fails without allocating
                  ["--max-support", str(10 ** 17), "--dims", "1"],
                  ["--max-support", str(10 ** 12), "--dims", str(10 ** 6)]):
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


def test_sweep_propagates_an_error_raised_while_training(tmp_path, monkeypatch):
    # only refusals before training exit 2; a fault inside training is not
    # a usage error, under sweep as under run
    def fault(*args):
        raise ValueError("a fault inside training")

    monkeypatch.setattr(harness, "_run_single", fault)
    # one seed, so it runs in this process; coda-without-C reads sample_rate
    cfg = write_cfg(tmp_path, {**TINY_CFG, "methods": ["coda-without-C"]})
    for argv in (["run"], ["sweep", "--param", "sample_rate", "--values", "1"]):
        with pytest.raises(ValueError, match="a fault inside training"):
            main([*argv, "--config", cfg, "--out", str(tmp_path / "out")])


def test_config_error_is_the_harness_class():
    assert cli.ConfigError is harness.ConfigError
    assert issubclass(harness.ConfigError, ValueError)


def test_verify_bound_keeps_rows_only_for_out(tmp_path, monkeypatch):
    calls = []
    real = bounds.BoundReport.to_dict
    monkeypatch.setattr(bounds.BoundReport, "to_dict",
                        lambda self: calls.append(1) or real(self))
    assert main(["verify-bound", "--pairs", "5"]) == 0
    assert calls == []
    assert main(["verify-bound", "--pairs", "5", "--out", str(tmp_path / "rows.json")]) == 0
    assert len(calls) == 5


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


# -- hostile inputs to `run` -------------------------------------------------

BAD_CELLS = ("", " ", "nan", "inf", "-inf", "1e400", "abc", "1.5", "-1", "2", "0.5",
             "1e308", "-0", '"1"', "\x00", "1,2", "\"unclosed")
BAD_VALUES = (None, True, "x", -1, 0, 3, 1.5, 1e300, float("nan"), [], [0], [-1],
              [1, "a"], [True], {}, {"kind": "moons"})
# (block or None for the top level, key): keys of every block, and unknown ones;
# never a second seed (no worker processes) or more than 5 downstream epochs
CONFIG_KEYS = ((None, "seeds"), (None, "sample_rate"), (None, "methods"), (None, "mystery"),
               (None, "output_dir"), ("downstream", "hidden_dims"),
               ("downstream", "learning_rate"), ("downstream", "patience"),
               ("downstream", "max_epochs"), ("downstream", "seed"),
               ("dataset", "feature_cols"), ("dataset", "task"), ("dataset", "domain_col"),
               ("dataset", "label_col"), ("dataset", "kind"), ("dataset", "path"),
               ("dataset", "mystery"), ("predictor", "layers"), ("simulator", None))
# for coda: the keys above but a whole simulator block (its default budget
# trains for seconds), and keys of the blocks it trains; an epoch budget set
# here is at most 3, or it is refused
CODA_KEYS = (*(key for key in CONFIG_KEYS if key != ("simulator", None)),
             ("predictor", "lambda_ce"), ("predictor", "hidden_dim"),
             ("predictor", "max_epochs"), ("simulator", "lambda_c"),
             ("simulator", "latent_dim"), ("simulator", "obs_variance"),
             ("simulator", "batch_size"), ("simulator", "warmup_epochs"),
             ("simulator", "learning_rate"))


@st.composite
def csv_texts(draw):
    """A small domain table with at most one hostile trait: bad cells, a
    duplicate header, a constant column, single-class domains, or no rows."""
    trait = draw(st.sampled_from(["none", "cells", "cells", "header", "constant",
                                  "one class", "empty"]))
    if trait == "empty":
        return draw(st.sampled_from(["", "\n", "t,y,x0\n", "t\n0\n", "\x00",
                                     "t,y,x0\n0,1\n"]))
    features = draw(st.integers(1, 3))
    header = ["t", "y", *(f"x{i}" for i in range(features))]
    rows = []
    for t in range(draw(st.integers(2, 4))):
        one_class = trait == "one class" and draw(st.booleans())
        for i in range(draw(st.integers(2, 6))):
            values = draw(st.lists(st.floats(-3, 3), min_size=features, max_size=features))
            rows.append([str(t), "1" if one_class else str(i % 2),
                         *(f"{v:.3f}" for v in values)])
    if trait == "header":  # one column named twice
        header[-1] = header[draw(st.integers(0, len(header) - 2))]
    if trait == "constant":
        col = draw(st.integers(2, len(header) - 1))
        for row in rows:
            row[col] = "1.0"
    if trait == "cells":
        for _ in range(draw(st.integers(1, 3))):
            row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
            rows[row][col] = draw(st.sampled_from(BAD_CELLS))
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


@st.composite
def run_configs(draw, method="lastdomain", hostile=st.booleans(), keys=CONFIG_KEYS):
    """A `method` config on one seed and at most 5 downstream epochs (coda:
    at most 4 forecaster and 4 simulator epochs), for either task (prelim:
    classification), where `hostile` draws True with one of `keys` set to a
    value of a wrong type, out of range or unknown."""
    tasks = ["classification"] if method == "prelim" else ["classification", "regression"]
    config = {"dataset": {"kind": "csv", "task": draw(st.sampled_from(tasks))},
              "methods": [method], "seeds": [0],
              "downstream": {"max_epochs": draw(st.integers(1, 5)), "patience": 2}}
    if method == "coda":
        config["predictor"] = {"max_epochs": draw(st.integers(1, 4)), "patience": 2}
        config["simulator"] = {"warmup_epochs": draw(st.integers(0, 2)),
                               "max_epochs": draw(st.integers(1, 4)), "patience": 2}
    if draw(hostile):
        block, key = draw(st.sampled_from(keys))
        value = draw(st.sampled_from(BAD_VALUES))
        if key is None:
            config[block] = value
        elif block is None:
            config[key] = value
        else:
            config.setdefault(block, {})[key] = value
    return config


TABLE = "t,y,a,b\n0,0,0.1,1\n0,1,0.5,2\n1,0,0.2,1\n1,1,0.3,3\n2,0,1,1\n2,1,2,2\n"
FIVE_EPOCHS = {"dataset": {"kind": "csv"}, "methods": ["lastdomain"], "seeds": [0],
               "downstream": {"max_epochs": 5}}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=csv_texts(), config=run_configs())
# each raised before: a field past the csv module's limit (csv.Error), and
# under -W error the overflow warnings of a source column spanning more
# than the float range, a target value far past the sources' range (as a
# feature, and as a feature whose regression error is near the float
# maximum, which the status line rounded as a numpy float), and an Adam
# step that sends the params past it
@example(text=TABLE.replace("0.1", "1" * 200_000), config=FIVE_EPOCHS)
@example(text=TABLE.replace("0.1", "1e308").replace("0.5", "-1e308"), config=FIVE_EPOCHS)
@example(text=TABLE.replace("2,1,2,2", "2,1,1e308,1e308"), config=FIVE_EPOCHS)
@example(text=TABLE.replace("2,1,2,2", "2,1,1e307,-1e307"),
         config={**FIVE_EPOCHS, "dataset": {"kind": "csv", "task": "regression"}})
@example(text=TABLE, config={**FIVE_EPOCHS, "downstream": {"max_epochs": 3,
                                                          "learning_rate": 1e300}})
def test_run_on_hostile_csv_and_config_exits_cleanly(text, config):
    exits_cleanly(text, config)


def exits_cleanly(text, config) -> int:
    """`run` on the csv `text` under `config`: it exits 0, 2 or 3, a refusal
    or numeric failure prints one stderr line that says which, and nothing
    raises. Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        if isinstance(config.get("dataset"), dict):
            config = {**config, "dataset": {"path": path, **config["dataset"]}}
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", cfg, "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: " if code == 2 else "numeric failure: "), err
    return code


# a grid point of prelim's default grid, as written in a csv cell; a class
# packed there has KDE mass at that point only, so the kernels of generated
# rows anywhere else underflow
ON_GRID = repr(float(density_baseline.default_grid(
    density_baseline.PrelimConfig().grid_size)[128]))
NEAR_GRID = repr(float(ON_GRID) + 1e-7)


@st.composite
def prelim_csv_texts(draw):
    """A stream of 4 or 5 domains for prelim and coda, whose first domain spans
    [-1, 1] in every feature so that min-max scaling keeps the values as
    written, with at most one hostile trait: bad cells, a constant column,
    a single-class domain, a class of one row in a domain, or a tight class
    in a truth domain (every row but one at a grid point, that one 1e-7
    away)."""
    trait = draw(st.sampled_from(["none", "cells", "constant", "one class", "one row",
                                  "tight", "tight"]))
    features = draw(st.integers(1, 2))
    domains = draw(st.integers(4, 5))
    header = ["t", "y", *(f"x{i}" for i in range(features))]
    odd = draw(st.integers(0, domains - 1))  # the domain a trait other than cells hits
    tight = (draw(st.integers(1, domains - 2)), draw(st.integers(2, len(header) - 1)))
    # values from a drawn seed: hypothesis's own floats shrink to repeated
    # values, which leave a class constant and end most cases in a refusal
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for t in range(domains):
        labels = [i % 2 for i in range(draw(st.integers(4, 8)))]
        if t == odd and trait == "one class":
            labels = [1] * len(labels)
        if t == odd and trait == "one row":
            labels = [0] * (len(labels) - 1) + [1]
        for i, label in enumerate(labels):
            cells = [str(t), str(label), *(f"{v:.3f}" for v in rng.uniform(-1, 1, features))]
            if t == 0 and i < 2:
                cells[2:] = ["-1" if i == 0 else "1"] * features
            if trait == "tight" and (t, label) == (tight[0], 1):
                cells[tight[1]] = NEAR_GRID if i == len(labels) - 1 else ON_GRID
            rows.append(cells)
    if trait == "constant":
        col = draw(st.integers(2, len(header) - 1))
        for row in rows:
            row[col] = "0.5"
    if trait == "cells":
        for _ in range(draw(st.integers(1, 3))):
            row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
            rows[row][col] = draw(st.sampled_from(BAD_CELLS))
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
# one config in four is hostile, so that most cases reach training
@given(text=prelim_csv_texts(),
       config=run_configs("prelim", st.sampled_from([False, False, False, True])))
def test_prelim_run_on_hostile_csv_and_config_exits_cleanly(text, config):
    exits_cleanly(text, config)


# four domains of six rows, so that coda trains a forecaster on three sources
CODA_TABLE = "t,y,a,b\n" + "".join(f"{t},{i % 2},{(0.37 * i + 0.11 * t) % 1:.3f},"
                                   f"{(0.53 * i - 0.07 * t) % 1:.3f}\n"
                                   for t in range(4) for i in range(6))
CODA_EPOCHS = {"dataset": {"kind": "csv"}, "methods": ["coda"], "seeds": [0],
               "downstream": {"max_epochs": 3}, "predictor": {"max_epochs": 2},
               "simulator": {"warmup_epochs": 1, "max_epochs": 2}}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
# one config in three is hostile, so that most cases train the forecaster,
# the simulator and the downstream model
@given(text=prelim_csv_texts(),
       config=run_configs("coda", st.sampled_from([False, False, True]), CODA_KEYS))
# each raised before under -W error: the overflow warning of an Adam step on
# a gradient whose square passes the float range, from the forecaster's loss
# at lambda_ce = 1e300 and from the simulator's at lambda_c = 1e300
@example(text=CODA_TABLE, config={**CODA_EPOCHS, "predictor": {"max_epochs": 2,
                                                               "lambda_ce": 1e300}})
@example(text=CODA_TABLE, config={**CODA_EPOCHS, "simulator": {
    "warmup_epochs": 1, "max_epochs": 2, "lambda_c": 1e300}})
@pytest.mark.filterwarnings("error")
def test_coda_run_on_hostile_csv_and_config_exits_cleanly(text, config):
    exits_cleanly(text, config)


def test_prelim_on_a_tight_class_is_a_numeric_failure():
    # the truth side of domain 1's class 1 has KDE mass at one grid point;
    # the kernels of the rows generated for that class all underflow there,
    # so the loss is NaN: exit 3, not a traceback
    lines = ["t,y,x0", "0,0,-1", "0,1,1", "0,0,0.3", "0,1,-0.2"]
    for t in (1, 2, 3):
        lines += [f"{t},0,-0.4", f"{t},1,{ON_GRID if t == 1 else '0.6'}",
                  f"{t},0,0.1", f"{t},1,{NEAR_GRID if t == 1 else '0.2'}"]
    config = {"dataset": {"kind": "csv"}, "methods": ["prelim"], "seeds": [0],
              "downstream": {"max_epochs": 2}}
    assert exits_cleanly("\n".join(lines) + "\n", config) == 3
