from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsim import datasets
from driftsim.datasets import (DomainDataset, DomainStream,
                               fit_apply_normalization, load_csv_stream,
                               make_moons_domain, make_moons_stream,
                               save_domain_csv)


def _rot(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


# -- moons -------------------------------------------------------------------

def test_domain_five_is_quarter_rotation():
    base = make_moons_domain(40, 0, noise_std=0.0, seed=7)
    rotated = make_moons_domain(40, 5, noise_std=0.0, seed=7)
    np.testing.assert_allclose(rotated.features, base.features @ _rot(90).T,
                               atol=1e-12)


def test_moons_label_counts():
    d = make_moons_domain(200, 0, noise_std=0.1, seed=0)
    assert int((d.labels == 0).sum()) == 100
    assert int((d.labels == 1).sum()) == 100


def test_upper_moon_is_labeled_one():
    d = make_moons_domain(200, 0, noise_std=0.0, seed=0)
    mean_y_label1 = d.features[d.labels == 1, 1].mean()
    mean_y_label0 = d.features[d.labels == 0, 1].mean()
    assert mean_y_label1 > mean_y_label0


def test_domain_ten_is_half_turn_of_domain_zero():
    base = make_moons_domain(60, 0, noise_std=0.0, seed=3)
    ten = make_moons_domain(60, 10, noise_std=0.0, seed=3)
    np.testing.assert_allclose(ten.features, -base.features, atol=1e-12)


@given(st.integers(0, 12), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_noiseless_rotation_equivariance(i, seed):
    base = make_moons_domain(30, 0, noise_std=0.0, seed=seed)
    di = make_moons_domain(30, i, noise_std=0.0, seed=seed)
    np.testing.assert_allclose(di.features, base.features @ _rot(18 * i).T,
                               atol=1e-10)


def test_moons_domain_validation():
    with pytest.raises(ValueError):
        make_moons_domain(1, 0)
    with pytest.raises(ValueError):
        make_moons_domain(7, 0)
    for noise_std in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_moons_domain(10, 0, noise_std=noise_std)


def test_moons_stream_shape():
    stream = make_moons_stream(domains=10, n_per_domain=200, noise_std=0.1, seed=0)
    assert len(stream.sources) == 9
    assert stream.target.domain_index == 9
    total = sum(s.n for s in stream.sources) + stream.target.n
    assert total == 2000


def test_moons_stream_minimum():
    stream = make_moons_stream(domains=3, n_per_domain=20)
    assert len(stream.sources) == 2
    with pytest.raises(ValueError):
        make_moons_stream(domains=2)


def test_moons_stream_deterministic():
    a = make_moons_stream(domains=4, n_per_domain=50, noise_std=0.2, seed=42)
    b = make_moons_stream(domains=4, n_per_domain=50, noise_std=0.2, seed=42)
    for da, db in zip(a.sources + (a.target,), b.sources + (b.target,)):
        np.testing.assert_array_equal(da.features, db.features)
        np.testing.assert_array_equal(da.labels, db.labels)


def test_domain_noise_streams_are_independent():
    a = make_moons_domain(50, 1, noise_std=0.3, seed=0)
    b = make_moons_domain(50, 2, noise_std=0.3, seed=0)
    assert np.max(np.abs(a.features @ _rot(18).T - b.features)) > 1e-3


# -- dataset / stream invariants ----------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        DomainDataset(0, np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError, match="domain 4: classification labels"):
        DomainDataset(4, np.ones((3, 2)), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        DomainDataset(0, np.array([[np.nan, 1.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        DomainDataset(-1, np.ones((2, 2)), np.zeros(2))


def test_stream_requires_increasing_indices_and_shared_shape():
    d0 = make_moons_domain(20, 0)
    d1 = make_moons_domain(20, 1)
    with pytest.raises(ValueError):
        DomainStream(sources=(d1,), target=d0)
    other = DomainDataset(5, np.ones((4, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        DomainStream(sources=(d0, d1), target=other)


# -- CSV ingestion -------------------------------------------------------------

def _write(tmp_path, text, name="stream.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_csv_small_stream(tmp_path):
    path = _write(tmp_path, "t,y,a,b\n"
                            "0,0,1.0,2.0\n0,1,2.0,1.0\n"
                            "1,0,1.5,2.5\n1,1,2.5,1.5\n"
                            "2,0,1.1,2.1\n2,1,2.1,1.1\n")
    stream = load_csv_stream(path, domain_col="t", label_col="y")
    assert len(stream.sources) == 2
    assert stream.target.domain_index == 2
    assert stream.target.n == 2
    assert stream.d == 2


def test_csv_non_numeric_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "t,y,a\n0,0,1.0\n0,1,oops\n1,0,2.0\n1,1,3.0\n")
    with pytest.raises(ValueError, match=r"row 3.*column 'a'"):
        load_csv_stream(path, domain_col="t", label_col="y")


def test_csv_missing_column(tmp_path):
    path = _write(tmp_path, "t,y,a\n0,0,1.0\n")
    with pytest.raises(ValueError, match="'b'"):
        load_csv_stream(path, domain_col="t", label_col="y", feature_cols=("a", "b"))


def test_csv_header_naming_a_column_twice_rejected(tmp_path):
    path = _write(tmp_path, "t,y,a,a\n0,0,1.0,5.0\n0,1,2.0,6.0\n"
                            "1,0,1.5,7.0\n1,1,2.5,8.0\n")
    with pytest.raises(ValueError, match="header names column 'a' twice"):
        load_csv_stream(path, domain_col="t", label_col="y")


@pytest.mark.parametrize("roles, twice", [
    (("t", "y", ("y", "a")), "y"),    # the label among the features
    (("t", "t", ()), "t"),            # one column as domain and label
    (("t", "y", ("a", "t")), "t"),    # the domain among the features
    (("t", "y", ("a", "a")), "a"),    # one feature listed twice
])
def test_csv_schema_naming_a_column_twice_rejected(tmp_path, roles, twice):
    path = _write(tmp_path, "t,y,a,b\n0,0,1.0,5.0\n0,1,2.0,6.0\n"
                            "1,0,1.5,7.0\n1,1,2.5,8.0\n")
    domain, label, features = roles
    with pytest.raises(ValueError, match=f"schema names column '{twice}' twice"):
        load_csv_stream(path, domain_col=domain, label_col=label, feature_cols=features)


def test_csv_rows_with_gaps_are_excluded(tmp_path):
    path = _write(tmp_path, "t,y,a\n"
                            "0,0,1.0\n0,1,2.0\n0,,9.9\n"
                            "1,0,1.5\n1,1,2.5\n")
    stream = load_csv_stream(path, domain_col="t", label_col="y")
    assert stream.sources[0].n == 2


@pytest.mark.parametrize("row, column", [("inf,0,1.0", "t"), ("nan,0,1.0", "t"),
                                         ("1,nan,1.0", "y"), ("1,0,-inf", "a")])
def test_csv_non_finite_cell_names_row_and_column(tmp_path, row, column):
    path = _write(tmp_path, f"t,y,a\n0,0,1.0\n0,1,2.0\n1,1,3.0\n{row}\n")
    with pytest.raises(ValueError, match=f"non-finite value .* at row 5, column '{column}'"):
        load_csv_stream(path, domain_col="t", label_col="y")


def test_csv_classification_label_names_row_and_column(tmp_path):
    text = "t,y,a\n0,0,1.0\n0,1,2.0\n1,0,1.5\n1,2,2.5\n2,0,1.1\n2,1,2.1\n"
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match="label '2' at row 5, column 'y' is not 0 or 1"):
        load_csv_stream(path, domain_col="t", label_col="y")
    stream = load_csv_stream(path, domain_col="t", label_col="y", task="regression")
    assert stream.sources[1].labels[1] == 2.0


def test_csv_rows_kept_are_capped(tmp_path, monkeypatch):
    path = _write(tmp_path, "t,y,a\n0,0,1.0\n0,1,2.0\n0,,9.9\n1,0,1.5\n1,1,2.5\n")
    schema = dict(domain_col="t", label_col="y")
    monkeypatch.setattr(datasets, "MAX_ROWS", 4)  # the row with a gap is not kept
    assert load_csv_stream(path, **schema).target.n == 2
    monkeypatch.setattr(datasets, "MAX_ROWS", 3)
    with pytest.raises(ValueError, match="more than 3 usable rows"):
        load_csv_stream(path, **schema)


def test_csv_fractional_domain_index_rejected(tmp_path):
    path = _write(tmp_path, "t,y,a\n0.5,0,1.0\n1,1,2.0\n")
    with pytest.raises(ValueError, match="not an integer"):
        load_csv_stream(path, domain_col="t", label_col="y")


def test_csv_undersized_domain_rejected(tmp_path):
    path = _write(tmp_path, "t,y,a\n0,0,1.0\n0,1,2.0\n1,1,3.0\n")
    with pytest.raises(ValueError, match="domain 1"):
        load_csv_stream(path, domain_col="t", label_col="y")


def test_csv_elec2_shape(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["t,y," + ",".join(f"f{i}" for i in range(8))]
    for t in range(30):
        for _ in range(4):
            feats = ",".join(f"{v:.4f}" for v in rng.normal(size=8))
            lines.append(f"{t},{rng.integers(0, 2)},{feats}")
    path = _write(tmp_path, "\n".join(lines) + "\n")
    stream = load_csv_stream(path, domain_col="t", label_col="y")
    assert len(stream.sources) == 29
    assert stream.target.domain_index == 29
    assert stream.d == 8


def test_csv_round_trip_via_save(tmp_path):
    domain = make_moons_domain(40, 3, noise_std=0.05, seed=9)
    other = make_moons_domain(40, 4, noise_std=0.05, seed=9)
    p1, p2 = tmp_path / "d3.csv", tmp_path / "d4.csv"
    save_domain_csv(domain, p1)
    save_domain_csv(other, p2)
    merged = tmp_path / "all.csv"
    lines = p1.read_text().splitlines()
    lines += p2.read_text().splitlines()[1:]
    merged.write_text("\n".join(lines) + "\n")
    stream = load_csv_stream(merged, domain_col="t", label_col="y")
    np.testing.assert_array_equal(stream.sources[0].features, domain.features)
    np.testing.assert_array_equal(stream.sources[0].labels, domain.labels)
    np.testing.assert_array_equal(stream.target.features, other.features)


# -- normalization --------------------------------------------------------------

def test_minmax_midpoint_maps_to_zero():
    x = np.array([[0.0], [5.0], [10.0], [10.0]])
    sources = (DomainDataset(0, x, np.array([0, 1, 0, 1.0])),)
    target = DomainDataset(1, np.array([[2.0], [4.0]]), np.array([0.0, 1.0]))
    stream, stats = fit_apply_normalization(DomainStream(sources, target))
    assert stream.sources[0].features[1, 0] == pytest.approx(0.0)
    assert stream.sources[0].features[0, 0] == -1.0
    assert stream.sources[0].features[2, 0] == 1.0


def test_constant_column_dropped_and_recorded():
    x = np.column_stack([np.ones(4), np.arange(4.0)])
    sources = (DomainDataset(0, x, np.array([0, 1, 0, 1.0]),
                             feature_names=("const", "ramp")),)
    target = DomainDataset(1, x, np.array([0, 1, 0, 1.0]),
                           feature_names=("const", "ramp"))
    stream, stats = fit_apply_normalization(DomainStream(sources, target))
    assert stream.d == 1
    assert stream.sources[0].feature_names == ("ramp",)


def test_all_constant_columns_error():
    x = np.ones((4, 2))
    sources = (DomainDataset(0, x, np.array([0, 1, 0, 1.0])),)
    target = DomainDataset(1, x, np.array([0, 1, 0, 1.0]))
    with pytest.raises(ValueError, match="constant"):
        fit_apply_normalization(DomainStream(sources, target))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_normalization_round_trip_and_bounds(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3)) * rng.uniform(0.5, 4.0, size=3)
    sources = (DomainDataset(0, x[:15], (np.arange(15.0) % 2)),
               DomainDataset(1, x[15:], (np.arange(15.0) % 2)))
    target = DomainDataset(2, rng.normal(size=(10, 3)), (np.arange(10.0) % 2))
    stream, stats = fit_apply_normalization(DomainStream(sources, target))
    for s in stream.sources:
        assert s.features.min() >= -1.0 - 1e-12
        assert s.features.max() <= 1.0 + 1e-12
    back = stats.invert_features(stream.sources[0].features)
    np.testing.assert_allclose(back, x[:15], atol=1e-12)


def test_target_may_exceed_source_bounds():
    sources = (DomainDataset(0, np.array([[0.0], [1.0]]), np.array([0.0, 1.0])),)
    target = DomainDataset(1, np.array([[2.0], [3.0]]), np.array([0.0, 1.0]))
    stream, _ = fit_apply_normalization(DomainStream(sources, target))
    assert stream.target.features.max() > 1.0


def test_regression_label_normalized_and_invertible():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 2))
    y = rng.uniform(10.0, 30.0, size=20)
    sources = (DomainDataset(0, x, y, task="regression"),)
    target = DomainDataset(1, x[:5], y[:5], task="regression")
    stream, stats = fit_apply_normalization(DomainStream(sources, target))
    assert stream.sources[0].labels.min() >= -1.0 - 1e-12
    assert stream.sources[0].labels.max() <= 1.0 + 1e-12
    np.testing.assert_allclose(stats.invert_label(stream.sources[0].labels), y,
                               atol=1e-12)
