"""Any JSON value in any place of a config, or of a fit_state.json, ends
in an exit code, never in an exception escaping the CLI."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilogit.cli import main

SIMULATE = {
    "simulate": {
        "n_categories": 3, "n": 150, "seed": 2,
        "beta": [[0.4, 0.2], [-0.3, 0.1]],
        "smooth": [{"kind": "linear", "intercept": 0.2, "slopes": 0.5},
                   {"kind": "sine", "amplitude": 1.0, "frequency": 1.0}],
        "x_laws": [{"kind": "normal", "mu": 0.0, "sd": 1.0},
                   {"kind": "bernoulli", "p": 0.4}],
        "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1}],
    },
    "model": "parametric", "kernel": {"scale": 0.8, "bandwidths": [0.5]},
    "fit": {"tol": 1e-8, "max_iter": 50}, "reference": 3, "seed": 7,
}
CSV = {
    "input": "data.csv",
    "columns": {"y": "response",
                "x1": {"role": "parametric", "transforms": [{"kind": "none"}]},
                "x2": "ignore",
                "t1": {"role": "parametric",
                       "transforms": [{"kind": "divide-by", "by": 10},
                                      {"kind": "square-augment"}]}},
    "impute": {"x1": 0.5}, "reference": "1", "model": "parametric", "seed": 7,
}
SECTIONS = {
    **SIMULATE,
    "surface": {"axes": [{"name": "t1", "lo": -0.5, "hi": 0.5, "steps": 3},
                         {"name": "t2", "lo": -0.5, "hi": 0.5, "steps": 3}],
                "fixed": {"x1": 1.0}, "categories": [1, 2]},
    "iia": {"method": "both", "drop": 1},
    "grid": {"lo": 0.4, "hi": 1.0, "steps": 3},
}
# a fit with two smooth covariates, for the surface subcommand
Q2_FIT = {
    "simulate": {"n_categories": 2, "n": 150, "seed": 7, "beta": [[0.6]],
                 "smooth": [{"kind": "ridge-interaction", "a": 0.5}],
                 "x_laws": [{"kind": "bernoulli", "p": 0.5}],
                 "t_laws": [{"kind": "uniform", "lo": -1, "hi": 1},
                            {"kind": "uniform", "lo": -1, "hi": 1}]},
    "model": "semiparametric", "kernel": {"scale": 0.8},
}


def places(node, prefix=()):
    """Path of every value in ``node``, leaves and containers alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from places(value, prefix + (key,))


SECTION_COMMAND = {"surface": "surface", "iia": "iia-test", "grid": "bandwidth-grid"}
CASES = {
    "simulate": (SIMULATE, list(places(SIMULATE))),
    "csv": (CSV, list(places(CSV))),
    "sections": (SECTIONS, [p for p in places(SECTIONS) if p[0] in SECTION_COMMAND]),
}

# Numbers stay small so that a value landing on a size (n, a step count,
# a category count) keeps one example well under a second: a valid but
# huge size asks for that much memory.  The fixed extremes are always in
# play; 1e308 is too large for any integer field and so is rejected
# before anything is allocated.
EXTREMES = st.sampled_from([-1, 2.5, True, 1e308])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.floats(-100, 100, allow_nan=False) | st.text(max_size=4))
JSON = EXTREMES | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=5)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "q2.json").write_text(json.dumps(Q2_FIT))
    assert main(["fit", "--config", str(work / "q2.json"), "--out", str(work / "fit")]) == 0
    (work / "sim.json").write_text(json.dumps(SIMULATE))
    assert main(["simulate", "--config", str(work / "sim.json"),
                 "--out", str(work / "sim")]) == 0
    (work / "data.csv").write_text((work / "sim" / "data.csv").read_text())
    (work / "surface.json").write_text(json.dumps({**Q2_FIT,
                                                   "surface": SECTIONS["surface"]}))
    return work


def spoiled(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_json_value_anywhere_exits_with_a_code(workdir, case, data):
    config, paths = CASES[case]
    path = data.draw(st.sampled_from(paths), label="path")
    config = spoiled(config, path, data.draw(JSON, label="value"))
    if config.get("input") == "data.csv":
        config["input"] = str(workdir / "data.csv")
    cfg = workdir / "c.json"
    cfg.write_text(json.dumps(config))
    commands = [SECTION_COMMAND[path[0]]] if case == "sections" else ["fit", "iia-test"]
    for command in commands:
        argv = [command, "--config", str(cfg), "--out", str(workdir / "o")]
        if command == "surface":
            argv += ["--fit-dir", str(workdir / "fit")]
        assert main(argv) in (0, 2, 3, 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_json_value_anywhere_in_a_fit_state_exits_with_a_code(workdir, data):
    state = json.loads((workdir / "fit" / "fit_state.json").read_text())
    # the first two entries of a list stand for all, so the fields of the
    # state are not lost among the entries of its per-observation arrays
    paths = [p for p in places(state)
             if all(not isinstance(k, int) or k < 2 for k in p)]
    path = data.draw(st.sampled_from(paths), label="path")
    fit_dir = workdir / "spoiled-fit"
    fit_dir.mkdir(exist_ok=True)
    (fit_dir / "fit_state.json").write_text(
        json.dumps(spoiled(state, path, data.draw(JSON, label="value"))))
    argv = ["surface", "--config", str(workdir / "surface.json"),
            "--fit-dir", str(fit_dir), "--out", str(workdir / "o")]
    assert main(argv) in (0, 2, 3, 4)
