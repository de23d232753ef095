"""Synthetic data from fully known MNL data-generating processes.

Every draw is reproducible: a root ``SeedSequence(seed)`` is spawned into
one child stream per covariate column (x columns first, then t columns)
plus one final stream for the response, so changing one column's law
never perturbs the others.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import Dataset, _row_reduce, softmax_probabilities
from .exceptions import ConfigError
from .schema import SIMULATE, SMOOTH, walk


@dataclass(frozen=True)
class DGPSpec:
    """A fully known semiparametric MNL data-generating process.

    ``beta`` is the (K-1, p) coefficient matrix; ``smooth`` holds one
    descriptor per non-reference category (category K is the reference,
    with zero coefficients and zero smooth function); ``x_laws`` and
    ``t_laws`` give one marginal law per covariate column.  Every field is
    read through the ``simulate`` entry of the config table, which gives
    the defaults; no smooth descriptors mean zero smooth functions.
    """

    n_categories: int
    n: int
    seed: int
    beta: np.ndarray = None
    smooth: tuple = None
    x_laws: tuple = None
    t_laws: tuple = None

    def __post_init__(self):
        spec = walk(SIMULATE, vars(self), "simulate")
        K, beta, q = spec["n_categories"], spec["beta"], len(spec["t_laws"])
        spec["beta"] = beta = beta.reshape(K - 1, 0) if beta.size == 0 else beta
        spec["smooth"] = smooth = spec["smooth"] or [{"kind": "zero"}] * (K - 1)
        if beta.shape != (K - 1, len(spec["x_laws"])):
            raise ConfigError(f"simulate.beta is {beta.shape}: it needs a row per "
                              f"non-reference category and a column per x law")
        if len(smooth) != K - 1:
            raise ConfigError(f"simulate.smooth needs {K - 1} entries, one per "
                              f"non-reference category, got {len(smooth)}")
        for k, desc in enumerate(smooth):
            if desc["kind"] == "linear" and len(desc["slopes"]) not in (1, q):
                raise ConfigError(f"simulate.smooth[{k}].slopes needs length 1 or {q}")
            if q < {"sine": 1, "ridge-interaction": 2}.get(desc["kind"], 0):
                raise ConfigError(f"simulate.smooth[{k}] ({desc['kind']}) needs "
                                  f"more t laws than {q}")
        for name, value in spec.items():
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    @property
    def p(self) -> int:
        return len(self.x_laws)

    @property
    def q(self) -> int:
        return len(self.t_laws)

    def to_dict(self) -> dict:
        return {
            "n_categories": self.n_categories, "n": self.n, "seed": self.seed,
            "beta": self.beta.tolist(), "smooth": list(self.smooth),
            "x_laws": list(self.x_laws), "t_laws": list(self.t_laws),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DGPSpec":
        return cls(**{f.name: d.get(f.name) for f in fields(cls)})


def evaluate_smooth(desc: dict, T: np.ndarray) -> np.ndarray:
    """True smooth-function values at the rows of T."""
    T = np.atleast_2d(np.asarray(T, dtype=np.float64))
    desc = walk(SMOOTH, desc, "smooth")
    kind = desc["kind"]
    if kind == "zero":
        return np.zeros(T.shape[0])
    if kind == "linear":
        slopes = np.broadcast_to(np.asarray(desc["slopes"], dtype=float), (T.shape[1],))
        return desc["intercept"] + T @ slopes
    if kind == "sine":
        return desc["amplitude"] * np.sin(desc["frequency"] * T[:, 0])
    return desc["a"] * T[:, 0] * T[:, 1]


def _draw_column(law: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    kind = law["kind"]
    if kind == "uniform":
        return rng.uniform(law["lo"], law["hi"], size=n)
    if kind == "normal":
        return rng.normal(law["mu"], law["sd"], size=n)
    if kind == "bernoulli":
        return (rng.random(n) < law["p"]).astype(np.float64)
    return rng.lognormal(law["mu"], law["sigma"], size=n)


def true_probabilities(spec: DGPSpec, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(n, K) category probabilities of the DGP at given covariates."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    K = spec.n_categories
    eta = np.zeros((x.shape[0], K))
    # softmax_probabilities rejects an eta that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1):
            eta[:, k] = x @ spec.beta[k] + evaluate_smooth(spec.smooth[k], t)
    return softmax_probabilities(eta)


def simulate(spec: DGPSpec) -> Dataset:
    """Draw a dataset from the DGP; bit-reproducible given the seed."""
    streams = np.random.SeedSequence(spec.seed).spawn(spec.p + spec.q + 1)
    x = np.column_stack([_draw_column(law, spec.n, np.random.default_rng(streams[j]))
                         for j, law in enumerate(spec.x_laws)]) \
        if spec.p else np.zeros((spec.n, 0))
    t = np.column_stack(
        [_draw_column(law, spec.n, np.random.default_rng(streams[spec.p + d]))
         for d, law in enumerate(spec.t_laws)]) if spec.q else np.zeros((spec.n, 0))
    probs = true_probabilities(spec, x, t)
    u = np.random.default_rng(streams[-1]).random(spec.n)
    y = 1 + _row_reduce(np.add, (u[:, None] > np.cumsum(probs, axis=1)).astype(np.int64))
    y = np.minimum(y, spec.n_categories)  # guard cumsum rounding at 1.0
    return Dataset(y=y, x=x, t=t, n_categories=spec.n_categories)
