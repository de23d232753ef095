"""CSV ingestion, transforms, manifests, artifact export."""

import json
from pathlib import Path

import numpy as np
import pytest

from semilogit import ConfigError, EmptyDatasetError, simulate
from semilogit.dataio import (
    fmt,
    load_csv,
    load_fit_state,
    read_config,
    run_fit,
    run_simulate,
    significance_stars,
    write_dataset_csv,
)
from conftest import make_dgp


def write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def basic_config(**over):
    return read_config({
        "columns": {"party": "response", "female": "parametric",
                    "income": {"role": "smooth", "transforms": [{"kind": "log"}]},
                    "age": {"role": "smooth",
                            "transforms": [{"kind": "divide-by", "by": 10.0}]}},
        **over})


class TestLoadCsv:
    def test_smoke_ingestion(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age",
                        "spd,1,1200,40",
                        "cdu,0,3000,60",
                        "spd,1,900,30"])
        data, report = load_csv(f, basic_config())
        assert data.n == 3 and data.n_categories == 2
        assert report.labels == ["spd", "cdu"]
        assert data.y.tolist() == [1, 2, 1]
        np.testing.assert_allclose(data.t[:, 0], np.log([1200.0, 3000.0, 900.0]))
        np.testing.assert_allclose(data.t[:, 1], [4.0, 6.0, 3.0])

    def test_log_domain_rows_dropped_with_reason(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age",
                        "a,1,0,40",
                        "b,0,3000,60",
                        "a,0,100,50",
                        "b,1,-5,20"])
        data, report = load_csv(f, basic_config())
        assert data.n == 2
        assert report.drops["log-domain"] == 2
        assert report.rows_in == report.rows_used + report.rows_dropped

    def test_unparseable_and_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age",
                        "a,junk,1000,40",
                        "b,1,2000,",
                        ",1,1500,33",
                        "a,1,1200,39",
                        "b,0,2500,44"])
        data, report = load_csv(f, basic_config())
        assert data.n == 2
        assert report.drops["parse"] == 1
        assert report.drops["missing"] == 2

    def test_short_row_without_response_field_is_a_parse_drop(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["female,income,age,party",
                        "1,1200,40,a",
                        "0,3000,60",
                        "1,900,30,b"])
        data, report = load_csv(f, basic_config())
        assert data.n == 2
        assert report.drops == {"parse": 1, "missing": 0, "log-domain": 0}

    def test_non_finite_values_are_parse_drops(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age",
                        "a,nan,1000,40",
                        "b,1,inf,50",
                        "a,1,1000,-inf",
                        "b,1e300,1000,40",          # divide-by overflows
                        "a,1,1000,1e200",           # square-augment overflows
                        "a,1,1200,39",
                        "b,0,2500,44"])
        cfg = read_config({"columns": {
            "party": "response",
            "female": {"role": "parametric",
                       "transforms": [{"kind": "divide-by", "by": 1e-10}]},
            "income": {"role": "smooth", "transforms": [{"kind": "log"}]},
            "age": {"role": "smooth", "transforms": [{"kind": "square-augment"}]}}})
        data, report = load_csv(f, cfg)
        assert data.n == 2
        assert report.drops == {"parse": 5, "missing": 0, "log-domain": 0}
        assert np.isfinite(data.x).all() and np.isfinite(data.t).all()

    def test_imputation_fills_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age",
                        "a,,1000,40",
                        "b,1,2000,50"])
        cfg = basic_config(impute={"female": 0.0})
        data, report = load_csv(f, cfg)
        assert data.n == 2 and data.x[0, 0] == 0.0

    def test_square_augment_adds_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age", "a,1,1000,40",
                        "b,0,2000,50"])
        cfg = read_config({"columns": {
            "party": "response", "female": "parametric",
            "income": {"role": "parametric",
                       "transforms": [{"kind": "log"}, {"kind": "square-augment"}]},
            "age": "ignore"}})
        data, report = load_csv(f, cfg)
        assert report.x_names == ["female", "income", "income_sq"]
        np.testing.assert_allclose(data.x[:, 2], np.log([1000.0, 2000.0]) ** 2)

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female", "a,1"])
        with pytest.raises(ConfigError, match="income"):
            load_csv(f, basic_config())

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["party,female,income,age"])
        with pytest.raises(EmptyDatasetError):
            load_csv(f, basic_config())

    def test_round_trip_bit_exact(self, tmp_path):
        data = simulate(make_dgp(K=3, n=80, seed=21))
        f = tmp_path / "rt.csv"
        write_dataset_csv(data, f)
        columns = {"y": "response",
                   **{f"x{j + 1}": "parametric" for j in range(data.p)},
                   **{f"t{d + 1}": "smooth" for d in range(data.q)}}
        again, report = load_csv(f, read_config({"columns": columns}))
        # labels map by first appearance; translate back before comparing
        back = np.array([int(again.labels[v - 1]) for v in again.y])
        assert np.array_equal(data.y, back)
        assert np.array_equal(data.x, again.x)
        assert np.array_equal(data.t, again.t)


class TestRunArtifacts:
    def test_parametric_run_writes_complete_tables(self, tmp_path):
        cfg = read_config({
            "simulate": make_dgp(K=3, n=250, seed=22).to_dict(),
            "model": "parametric", "seed": 22, "out": str(tmp_path / "run")})
        rc = run_fit(cfg)
        assert rc == 0
        coef = (tmp_path / "run" / "coefficients.csv").read_text().splitlines()
        # header + (K-1) x (intercept + p + q) rows
        assert len(coef) == 1 + 2 * (1 + 2 + 1)
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert "fit.converged = True" in manifest
        assert "versions.semilogit" in manifest
        assert "data.n = 250" in manifest

    def test_ingestion_conservation_in_manifest(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = ["party,female,income,age"]
        rows += [f"a,{i % 2},{100 + i},{30 + i}" for i in range(40)]
        rows += [f"b,{i % 2},{200 + i},{40 + i}" for i in range(40)]
        rows += ["a,1,0,50", "b,junk,500,60"]
        write_lines(f, rows)
        cfg = basic_config(input=str(f), model="parametric",
                           out=str(tmp_path / "run"))
        rc = run_fit(cfg)
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert "data.rows_in = 82" in manifest
        assert "data.rows_used = 80" in manifest
        assert "data.rows_dropped = 2" in manifest
        assert "data.drop.log-domain = 1" in manifest
        assert "data.drop.parse = 1" in manifest

    def test_nonconvergent_run_exits_3(self, tmp_path):
        cfg = read_config({
            "simulate": make_dgp(K=3, n=250, seed=23).to_dict(),
            "model": "parametric", "fit": {"max_iter": 1, "tol": 1e-14},
            "seed": 23, "out": str(tmp_path / "run")})
        assert run_fit(cfg) == 3
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert "fit.converged = False" in manifest

    def test_simulate_then_reload_fit_state(self, tmp_path):
        dgp = {"n_categories": 2, "n": 150, "seed": 3, "beta": [[0.5]],
               "smooth": [{"kind": "linear", "intercept": 0.1, "slopes": 0.4}],
               "x_laws": [{"kind": "bernoulli", "p": 0.5}],
               "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1}]}
        cfg = read_config({"simulate": dgp, "model": "semiparametric",
                           "kernel": {"scale": 0.8}, "seed": 3,
                           "out": str(tmp_path / "run")})
        assert run_fit(cfg) == 0
        data, fit, x_names, t_names = load_fit_state(
            tmp_path / "run" / "fit_state.json")
        assert data.n == 150 and fit.converged
        assert x_names == ["x1"] and t_names == ["t1"]
        m_csv = (tmp_path / "run" / "m_values.csv").read_text().splitlines()
        assert len(m_csv) == 151

    def test_run_simulate_writes_csv(self, tmp_path):
        cfg = read_config({"simulate": make_dgp(K=3, n=60, seed=9).to_dict(),
                           "out": str(tmp_path / "sim")})
        assert run_simulate(cfg) == 0
        lines = (tmp_path / "sim" / "data.csv").read_text().splitlines()
        assert lines[0] == "y,x1,x2,t1"
        assert len(lines) == 61


class TestFormatting:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            v = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(fmt(v)) == v

    def test_stars(self):
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.08) == "."
        assert significance_stars(0.2) == ""


class TestReadConfig:
    def test_two_response_columns_rejected(self):
        with pytest.raises(ConfigError, match="one response"):
            read_config({"columns": {"a": "response", "b": "response"}})

    def test_unknown_role_rejected(self):
        with pytest.raises(ConfigError, match="columns.a.role"):
            read_config({"columns": {"a": "covariate"}})

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError, match="columns.a.transforms"):
            read_config({"columns": {"a": {"role": "smooth",
                                           "transforms": [{"kind": "exp"}]}}})

    def test_load_round_trip(self, tmp_path):
        raw = {"input": "d.csv",
               "columns": {"y": "response",
                           "inc": {"role": "smooth",
                                   "transforms": {"kind": "log"}}},
               "model": "semiparametric", "kernel": {"scale": 0.7},
               "seed": 5, "out": "o"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        cfg = read_config(json.loads(p.read_text()))
        assert cfg["kernel"]["scale"] == 0.7
        assert cfg["columns"]["inc"]["transforms"] == [{"kind": "log"}]
        assert cfg["columns"]["y"] == {"role": "response", "transforms": []}
        assert (cfg["input"], cfg["model"], cfg["seed"], cfg["out"]) == (
            "d.csv", "semiparametric", 5, "o")

    def test_empty_config_carries_the_defaults(self):
        cfg = read_config({})
        assert (cfg["model"], cfg["kernel"], cfg["seed"], cfg["out"]) == (
            "parametric", {"scale": 0.5}, 0, "run-output")
        assert (cfg["columns"], cfg["fit"], cfg["impute"]) == ({}, {}, {})
        assert "input" not in cfg and "simulate" not in cfg
