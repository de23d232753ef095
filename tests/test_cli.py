"""CLI subcommands, flag overrides, exit codes."""

import copy
import json
from pathlib import Path

import numpy as np
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

    @pytest.mark.parametrize("model", ["parametric", "semiparametric"])
    def test_max_iter_0_exits_3_with_its_artifacts(self, tmp_path, model):
        cfg = write_config(tmp_path / "c.json", model=model, fit={"max_iter": 0})
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        manifest = (tmp_path / "o" / "manifest.txt").read_text()
        assert "fit.converged = False" in manifest
        assert "fit.iterations = 0" in manifest
        trace = (tmp_path / "o" / "loglik_trace.csv").read_text().splitlines()
        assert len(trace) == 2          # header and the start's log-likelihood
        table = (tmp_path / "o" / "coefficients.csv").read_text().splitlines()
        assert len(table) > 1

    def test_parametric_line_search_failure_lands_in_the_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", model="parametric", simulate={
            "n_categories": 2, "n": 200, "seed": 7, "beta": [[0.0]],
            "smooth": [{"kind": "zero"}],
            "x_laws": [{"kind": "normal", "sd": 1e160}],
            "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1}]})
        with np.errstate(all="ignore"):   # the information overflows
            rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        manifest = (tmp_path / "o" / "manifest.txt").read_text()
        assert ("fit.warning.1 = line search found no acceptable step at "
                "iteration 1") in manifest

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["fit", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_bandwidths_of_the_wrong_length_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", kernel={"bandwidths": [0.5, 0.5]})
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "kernel has 2 bandwidths, data has q=1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
         "columns.x1.transforms[0].by must be a number"),
        ({"seed": "abc"}, "seed must be a number"),
        ({"kernel": {"scale": "x"}}, "kernel.scale must be a number"),
        ({"fit": {"max_iter": "abc"}}, "fit.max_iter must be a number"),
        ({"fit": {"tol": "abc"}}, "fit.tol must be a number"),
        ({"impute": {"x1": "abc"}}, "impute.x1 must be a number"),
        ({"simulate": {"n_categories": 2, "seed": 7}}, "simulate.n is missing"),
        ({"simulate": {"n": 200}}, "simulate.n_categories is missing"),
        ({"simulate": {"n_categories": 2, "n": "many", "seed": 7}},
         "simulate.n must be a number"),
        ({"kernel": "x"}, "kernel must be a JSON object"),
        ({"fit": "x"}, "fit must be a JSON object"),
        ({"kernel": {"bandwidths": ["a", "b"]}}, "kernel.bandwidths[0] must be a number"),
        ({"simulate": {"n_categories": 2, "n": 200, "seed": 7, "beta": [[0.6]],
                       "x_laws": [{"kind": "normal", "sd": "x"}]}},
         "simulate.x_laws[0].sd must be a number"),
        ({"reference": 2.5}, "reference must be an integer"),
        ({"seed": 2.5}, "seed must be an integer"),
        ({"fit": {"max_iter": 3.7}}, "fit.max_iter must be an integer"),
        ({"simulate": {"n_categories": 2.9, "n": 200, "seed": 7}},
         "simulate.n_categories must be an integer"),
        ({"input": "data.csv", "columns": {"y": 5}}, "columns.y.role must be one of"),
        ({"kernel": {"bandwidths": 0.3}}, "kernel.bandwidths must be a list"),
        ({"simulate": {"n_categories": 2, "n": 200, "seed": 7, "beta": [[0.6]],
                       "x_laws": ["normal"]}}, "simulate.x_laws[0] must be a JSON object"),
        ({"input": 5}, "input must be a string"),
        ({"input": "data.csv",
          "columns": {"y": "response", "x1": {"role": "parametric", "transforms": ["log"]}}},
         "columns.x1.transforms[0] must be a JSON object"),
        ({"kernel": {"scale": -1}}, "kernel.scale must be > 0"),
        ({"simulate": {"n_categories": 2, "n": 200, "seed": 7, "beta": "x"}},
         "simulate.beta must be a matrix of finite numbers"),
        ({"simulate": {"n_categories": 2, "n": 1e308, "seed": 7}},
         "simulate.n must be within int64"),
        ({"simulate": {"n_categories": 2, "n": 200, "seed": -1}},
         "simulate.seed must be >= 0"),
        ({"simulate": {"n_categories": 2, "n": 200, "seed": 7, "t_laws": {}}},
         "simulate.t_laws must be a list"),
    ], ids=["not-json", "not-an-object", "divide-by-text", "seed-text",
            "scale-text", "max-iter-text", "tol-text", "impute-text",
            "simulate-without-n", "simulate-without-k", "simulate-n-text",
            "kernel-text", "fit-text", "bandwidths-text", "law-sd-text",
            "reference-fraction", "seed-fraction", "max-iter-fraction",
            "simulate-k-fraction", "column-spec-number", "bandwidths-scalar",
            "law-not-an-object", "input-number", "transform-text",
            "scale-negative", "beta-text", "simulate-n-huge",
            "simulate-seed-negative", "t-laws-object"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, message):
        path = tmp_path / "c.json"
        if isinstance(config, str):
            path.write_text(config)
        else:
            write_config(path, extra=config)
        rc = main(["fit", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, value, message", [
        ("surface", "surface", {"axes": [{"name": "t1", "lo": -0.5, "hi": 0.5, "steps": "3"},
                                         {"name": "t2", "lo": -0.5, "hi": 0.5, "steps": 3}],
                                "fixed": {"x1": 1.0}},
         "surface.axes[0].steps must be a number"),
        ("surface", "surface", {"axes": ["t1", "t2"], "fixed": {"x1": 1.0}},
         "surface.axes[0] must be a JSON object"),
        ("surface", "surface", {"axes": [{"name": "t1", "steps": 3},
                                         {"name": "t2", "steps": 3}],
                                "fixed": {"x1": 1.0}, "categories": 1},
         "surface.categories must be a list"),
        ("surface", "surface", {"axes": [{"name": "t1", "steps": 1e308},
                                         {"name": "t2", "steps": 3}],
                                "fixed": {"x1": 1.0}},
         "surface.axes[0].steps must be within int64"),
        ("iia-test", "iia", {"drop": "x"}, "iia.drop must be a number"),
        ("iia-test", "iia", {"drop": 1.5}, "iia.drop must be an integer"),
        ("iia-test", "iia", {"method": ["both"]}, "iia.method must be one of"),
        ("bandwidth-grid", "grid", {"lo": "x"}, "grid.lo must be a number"),
        ("bandwidth-grid", "grid", {"steps": 1e308}, "grid.steps must be within int64"),
    ], ids=["surface-steps-text", "surface-axis-text", "surface-categories-number",
            "surface-steps-huge", "iia-drop-text", "iia-drop-fraction",
            "iia-method-list", "grid-lo-text", "grid-steps-huge"])
    def test_malformed_subcommand_config_exits_2(self, tmp_path, capsys, command,
                                                 section, value, message):
        cfg = copy.deepcopy(SUBCOMMAND_CONFIGS[command])
        cfg[section] = value
        path = write_config(tmp_path / "c.json", extra=cfg)
        args = ["--config", str(path), "--out", str(tmp_path / "o")]
        if command == "surface":
            assert main(["fit", "--config", str(path),
                         "--out", str(tmp_path / "f")]) == 0
            args += ["--fit-dir", str(tmp_path / "f")]
        assert main([command] + args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, message", [
        ("fit", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("iia-test", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("fit", ["--scale", "-1"], "kernel.scale must be > 0, got -1"),
        ("fit", ["--scale", "nan"], "kernel.scale must be finite, got nan"),
    ], ids=["fit-seed-negative", "iia-seed-negative", "scale-negative", "scale-nan"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, command, flags, message):
        path = write_config(tmp_path / "c.json", extra=SUBCOMMAND_CONFIGS["iia-test"])
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.txt").exists()


Q2_SIMULATE = {
    "n_categories": 2, "n": 200, "seed": 7, "beta": [[0.6]],
    "smooth": [{"kind": "ridge-interaction", "a": 0.5}],
    "x_laws": [{"kind": "bernoulli", "p": 0.5}],
    "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1},
               {"kind": "uniform", "lo": -1, "hi": 1}],
}
K3_SIMULATE = {
    "n_categories": 3, "n": 400, "seed": 2, "beta": [[0.4], [-0.3]],
    "smooth": [{"kind": "zero"}, {"kind": "zero"}],
    "x_laws": [{"kind": "normal"}], "t_laws": [],
}
# a valid config per subcommand, before its section is spoiled
SUBCOMMAND_CONFIGS = {
    "surface": {"simulate": Q2_SIMULATE},
    "iia-test": {"simulate": K3_SIMULATE, "model": "parametric"},
    "bandwidth-grid": {},
}


class TestNoOutputOnExit2:
    """A run that exits 2 after its config was read leaves no output
    directory: the directory is made just before the first write."""

    @pytest.mark.parametrize("command, extra, message", [
        ("fit", {"reference": 5}, "reference 5 outside 1..2"),
        ("simulate", {"simulate": {**K3_SIMULATE, "smooth": [{"kind": "zero"}]}},
         "simulate.smooth needs 2 entries"),
        ("surface", {"simulate": Q2_SIMULATE,
                     "surface": {"axes": [{"name": "t1", "steps": 3},
                                          {"name": "t2", "steps": 3}],
                                 "fixed": {"x1": 1.0}, "categories": [3]}},
         "surface.categories must lie in 1..2"),
        ("iia-test", {"simulate": K3_SIMULATE, "model": "parametric", "reference": 9},
         "reference 9 outside 1..3"),
        ("bandwidth-grid", {"simulate": K3_SIMULATE},
         "bandwidth grid needs at least one smooth covariate"),
    ], ids=["fit", "simulate", "surface", "iia-test", "bandwidth-grid"])
    def test_no_output_directory(self, tmp_path, capsys, command, extra, message):
        path = write_config(tmp_path / "c.json", extra=extra)
        args = ["--config", str(path), "--out", str(tmp_path / "o")]
        if command == "surface":
            assert main(["fit", "--config", str(path),
                         "--out", str(tmp_path / "f")]) == 0
            args += ["--fit-dir", str(tmp_path / "f")]
        assert main([command] + args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_beta_of_1e308_exits_4_without_a_warning(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", model="parametric", simulate={
            "n_categories": 2, "n": 50, "seed": 7, "beta": [[1e308]],
            "x_laws": [{"kind": "normal"}], "t_laws": []})
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err

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
            extra={"simulate": Q2_SIMULATE, "surface": {
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

    @pytest.mark.parametrize("categories", [[0], [3]], ids=["zero", "k-plus-one"])
    def test_category_outside_1_to_k_rejected(self, tmp_path, capsys, categories):
        cfg_path = self._fit(tmp_path)
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["surface"]["categories"] = categories
        Path(cfg_path).write_text(json.dumps(cfg))
        rc = main(["surface", "--config", str(cfg_path),
                   "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s2")])
        assert rc == 2
        assert "surface.categories must lie in 1..2" in capsys.readouterr().err
        assert not (tmp_path / "s2" / "surface.csv").exists()

    @pytest.mark.parametrize("state", ['{"y": [1, 2]}', '{"beta": ', "[1, 2]"],
                             ids=["missing-key", "not-json", "json-list"])
    def test_malformed_fit_state_exits_2(self, tmp_path, capsys, state):
        cfg = write_config(tmp_path / "c.json", extra={"simulate": Q2_SIMULATE, "surface": {
            "axes": [{"name": "t1", "steps": 3}, {"name": "t2", "steps": 3}],
            "fixed": {"x1": 1.0}}})
        (tmp_path / "f").mkdir()
        (tmp_path / "f" / "fit_state.json").write_text(state)
        rc = main(["surface", "--config", str(cfg), "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        assert str(tmp_path / "f" / "fit_state.json") in capsys.readouterr().err

    @pytest.mark.parametrize("spoil", [
        lambda s: s["bandwidths"].pop(),
        lambda s: s["m"][0].pop(),
        lambda s: s["beta"][0].append(s["beta"][0][0]),
        lambda s: s.update(converged="false"),
        lambda s: s.update(x_names=5),
        lambda s: s.update(t_names=5),
    ], ids=["one-bandwidth", "m-value-dropped", "beta-column-added",
            "converged-string", "x-names-number", "t-names-number"])
    def test_fit_state_not_of_its_data_or_types_exits_2(self, tmp_path, capsys,
                                                        spoil):
        cfg = self._fit(tmp_path)
        path = tmp_path / "f" / "fit_state.json"
        state = json.loads(path.read_text())
        spoil(state)
        path.write_text(json.dumps(state))
        capsys.readouterr()
        rc = main(["surface", "--config", str(cfg), "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("semilogit: ") and err.count("\n") == 1
        assert not (tmp_path / "s" / "surface.csv").exists()

    def test_axis_ending_at_1e308_exits_4_without_a_warning(self, tmp_path, capsys):
        cfg_path = self._fit(tmp_path)
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["surface"]["axes"][0]["hi"] = 1e308
        Path(cfg_path).write_text(json.dumps(cfg))
        rc = main(["surface", "--config", str(cfg_path),
                   "--fit-dir", str(tmp_path / "f"),
                   "--out", str(tmp_path / "s2")])
        assert rc == 4
        assert "kernel weights vanished" in capsys.readouterr().err

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
            extra={"simulate": K3_SIMULATE, "iia": {"method": "both"}},
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
