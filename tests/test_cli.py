"""CLI subcommands, flag overrides, exit codes."""

import json
from pathlib import Path

import pytest

from semilogit.cli import main
from semilogit.dataio import fmt


def write_config(path, extra=None, **top):
    cfg = {
        "simulate": {
            "n_categories": 2, "n": 200, "seed": 7, "beta": [[0.6]],
            "smooth": [{"kind": "linear", "intercept": 0.2, "slopes": 0.5}],
            "x_laws": [{"kind": "bernoulli", "p": 0.5}],
            "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1}],
        },
        "model": "semiparametric",
        "kernel": {"scale": 0.8},
        "seed": 7,
    }
    cfg.update(top)
    if extra:
        cfg.update(extra)
    Path(path).write_text(json.dumps(cfg))
    return path


class TestFitCommand:
    def test_fit_converged_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "coefficients.csv").exists()
        assert (tmp_path / "o" / "fit_state.json").exists()

    def test_scale_override_lands_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--scale", "0.5"])
        manifest = (tmp_path / "o" / "manifest.txt").read_text()
        assert "config.kernel_scale = 0.5" in manifest

    def test_dropped_inner_tol_key_is_echoed_and_ignored(self, tmp_path):
        plain = write_config(tmp_path / "a.json")
        legacy = write_config(tmp_path / "b.json", fit={"inner_tol": 1e-12})
        assert main(["fit", "--config", str(plain), "--out", str(tmp_path / "a")]) == 0
        assert main(["fit", "--config", str(legacy), "--out", str(tmp_path / "b")]) == 0
        manifest = (tmp_path / "b" / "manifest.txt").read_text()
        assert f"config.fit.inner_tol = {fmt(1e-12)}" in manifest
        for f in sorted((tmp_path / "a").iterdir()):
            if f.name != "manifest.txt":
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["fit", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_bad_model_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", model="wobbly")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("config, message", [
        ('{"model": ', "not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ({"input": "data.csv",
          "columns": {"y": "response",
                      "x1": {"role": "parametric",
                             "transforms": {"kind": "divide-by", "by": "ten"}}}},
         "divide-by needs a nonzero 'by'"),
        ({"seed": "abc"}, "seed must be a number"),
        ({"kernel": {"scale": "x"}}, "kernel.scale must be a number"),
        ({"fit": {"max_iter": "abc"}}, "fit.max_iter must be a number"),
        ({"fit": {"tol": "abc"}}, "fit.tol must be a number"),
        ({"impute": {"x1": "abc"}}, "impute.x1 must be a number"),
        ({"simulate": {"n_categories": 2, "seed": 7}}, "simulate block lacks n"),
        ({"simulate": {"n": 200}}, "simulate block lacks n_categories"),
        ({"simulate": {"n_categories": 2, "n": "many", "seed": 7}},
         "must be integers"),
    ], ids=["not-json", "not-an-object", "divide-by-text", "seed-text",
            "scale-text", "max-iter-text", "tol-text", "impute-text",
            "simulate-without-n", "simulate-without-k", "simulate-n-text"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, message):
        path = tmp_path / "c.json"
        if isinstance(config, str):
            path.write_text(config)
        else:
            write_config(path, extra=config)
        rc = main(["fit", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestSimulateCommand:
    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "data.csv").read_text()
        b = (tmp_path / "b" / "data.csv").read_text()
        assert a != b


class TestSurfaceCommand:
    def _fit(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"simulate": {
                "n_categories": 2, "n": 200, "seed": 7, "beta": [[0.6]],
                "smooth": [{"kind": "ridge-interaction", "a": 0.5}],
                "x_laws": [{"kind": "bernoulli", "p": 0.5}],
                "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1},
                           {"kind": "uniform", "lo": -1, "hi": 1}],
            }, "surface": {
                "axes": [{"name": "t1", "lo": -0.5, "hi": 0.5, "steps": 3},
                         {"name": "t2", "lo": -0.5, "hi": 0.5, "steps": 3}],
                "fixed": {"x1": 1.0},
            }})
        assert main(["fit", "--config", str(cfg),
                     "--out", str(tmp_path / "f")]) == 0
        return cfg

    def test_surface_rows_ordered_and_normalized(self, tmp_path):
        cfg = self._fit(tmp_path)
        rc = main(["surface", "--config", str(cfg),
                   "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s")])
        assert rc == 0
        lines = (tmp_path / "s" / "surface.csv").read_text().splitlines()
        assert lines[0] == "t1,t2,category,probability"
        body = [l.split(",") for l in lines[1:]]
        assert len(body) == 3 * 3 * 2
        # t1-major, then t2, then category
        t1s = [float(r[0]) for r in body]
        assert t1s == sorted(t1s)
        for i in range(0, len(body), 2):
            p = float(body[i][3]) + float(body[i + 1][3])
            assert abs(p - 1.0) < 1e-8

    def test_state_with_dropped_options_gives_same_surface(self, tmp_path):
        cfg = self._fit(tmp_path)
        state = json.loads((tmp_path / "f" / "fit_state.json").read_text())
        assert set(state["options"]) == {"max_iter", "tol"}
        # a fit_state.json as written before inner_tol and step_cap were dropped
        state["options"].update(inner_tol=fmt(1e-10), step_cap=fmt(5.0))
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "fit_state.json").write_text(
            json.dumps(state, indent=1, sort_keys=True) + "\n")
        surfaces = []
        for fit_dir in ("f", "old"):
            assert main(["surface", "--config", str(cfg),
                         "--fit-dir", str(tmp_path / fit_dir),
                         "--out", str(tmp_path / ("s_" + fit_dir))]) == 0
            surfaces.append((tmp_path / ("s_" + fit_dir) / "surface.csv").read_bytes())
        assert surfaces[0] == surfaces[1]

    def test_axis_not_smooth_rejected(self, tmp_path):
        cfg_path = self._fit(tmp_path)
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["surface"]["axes"][0]["name"] = "x1"
        Path(cfg_path).write_text(json.dumps(cfg))
        rc = main(["surface", "--config", str(cfg_path),
                   "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s2")])
        assert rc == 2

    def test_surface_without_fit_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           extra={"surface": {"axes": []}})
        rc = main(["surface", "--config", str(cfg),
                   "--fit-dir", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "s")])
        assert rc == 2


class TestIIACommand:
    def test_table_written(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            extra={"simulate": {
                "n_categories": 3, "n": 400, "seed": 2,
                "beta": [[0.4], [-0.3]],
                "smooth": [{"kind": "zero"}, {"kind": "zero"}],
                "x_laws": [{"kind": "normal"}],
                "t_laws": [],
            }, "iia": {"method": "both"}},
            model="parametric")
        rc = main(["iia-test", "--config", str(cfg),
                   "--out", str(tmp_path / "iia")])
        assert rc == 0
        lines = (tmp_path / "iia" / "iia_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # both methods x two droppable


class TestBandwidthGridCommand:
    def test_grid_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        rc = main(["bandwidth-grid", "--config", str(cfg),
                   "--out", str(tmp_path / "g"),
                   "--lo", "0.4", "--hi", "1.0", "--steps", "4"])
        assert rc == 0
        lines = (tmp_path / "g" / "bandwidth_grid.csv").read_text().splitlines()
        assert lines[0] == "scale,h_t1"
        assert len(lines) == 5
        assert lines[1].startswith("0.4")


class TestSurfaceObservationConsistency:
    def test_grid_point_at_observation_matches_fit(self, tmp_path):
        import numpy as np
        from semilogit import linear_predictors, softmax_probabilities
        from semilogit.dataio import load_fit_state

        cfg_path = write_config(
            tmp_path / "c.json",
            extra={"simulate": {
                "n_categories": 2, "n": 220, "seed": 31, "beta": [[0.5]],
                "smooth": [{"kind": "ridge-interaction", "a": 0.5}],
                "x_laws": [{"kind": "bernoulli", "p": 0.5}],
                "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1},
                           {"kind": "uniform", "lo": -1, "hi": 1}],
            }, "fit": {"tol": 1e-10}})
        assert main(["fit", "--config", str(cfg_path),
                     "--out", str(tmp_path / "f")]) == 0
        data, fit, x_names, t_names = load_fit_state(
            tmp_path / "f" / "fit_state.json")
        i = 5
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["surface"] = {
            "axes": [{"name": "t1", "lo": float(data.t[i, 0]), "hi": 1.0,
                      "steps": 3},
                     {"name": "t2", "lo": float(data.t[i, 1]), "hi": 1.0,
                      "steps": 3}],
            "fixed": {"x1": float(data.x[i, 0])}}
        Path(cfg_path).write_text(json.dumps(cfg))
        assert main(["surface", "--config", str(cfg_path),
                     "--fit-dir", str(tmp_path / "f"),
                     "--out", str(tmp_path / "s")]) == 0
        first = (tmp_path / "s" / "surface.csv").read_text().splitlines()[1]
        _, _, k, prob = first.split(",")
        eta = linear_predictors(fit.beta, fit.smooth.m, data.x, fit.reference)
        expected = softmax_probabilities(eta)[i, int(k) - 1]
        assert abs(float(prob) - expected) < 1e-8
