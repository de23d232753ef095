"""Synthetic data from fully known MNL data-generating processes.

Every draw is reproducible: a root ``SeedSequence(seed)`` is spawned into
one child stream per covariate column (x columns first, then t columns)
plus one final stream for the response, so changing one column's law
never perturbs the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, softmax_probabilities
from .exceptions import ConfigError, config_number

SMOOTH_KINDS = ("zero", "linear", "sine", "ridge-interaction")
LAW_KINDS = ("uniform", "normal", "bernoulli", "lognormal")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _param(desc: dict, key: str, default: float) -> float:
    """``desc[key]`` (``default`` when absent) as a float."""
    return config_number(desc.get(key, default), f"{desc['kind']} {key}")


def validate_smooth(desc: dict, q: int) -> dict:
    kind = desc.get("kind") if isinstance(desc, dict) else None
    _require(kind in SMOOTH_KINDS, f"unknown smooth kind {kind!r}")
    if kind == "linear":
        slopes = [config_number(v, "linear slopes")
                  for v in np.atleast_1d(desc.get("slopes", 0.0)).tolist()]
        _require(np.all(np.isfinite(slopes)), "linear slopes must be finite")
        _require(len(slopes) in (1, q), f"linear slopes must have length 1 or {q}")
        _require(np.isfinite(_param(desc, "intercept", 0.0)), "intercept must be finite")
    elif kind == "sine":
        _require(np.isfinite(_param(desc, "amplitude", 1.0)), "amplitude must be finite")
        _require(np.isfinite(_param(desc, "frequency", 1.0)), "frequency must be finite")
    elif kind == "ridge-interaction":
        _require(q >= 2, "ridge-interaction needs at least two smooth covariates")
        _require(np.isfinite(_param(desc, "a", 1.0)), "ridge coefficient must be finite")
    return dict(desc)


def validate_law(desc: dict) -> dict:
    kind = desc.get("kind") if isinstance(desc, dict) else None
    _require(kind in LAW_KINDS, f"unknown covariate law {kind!r}")
    if kind == "uniform":
        lo, hi = _param(desc, "lo", 0.0), _param(desc, "hi", 1.0)
        _require(np.isfinite(lo) and np.isfinite(hi) and lo < hi,
                 f"uniform needs lo < hi, got ({lo}, {hi})")
    elif kind == "normal":
        _require(np.isfinite(_param(desc, "mu", 0.0)), "normal mu must be finite")
        _require(_param(desc, "sd", 1.0) > 0, "normal sd must be positive")
    elif kind == "bernoulli":
        pr = _param(desc, "p", 0.5)
        _require(0.0 <= pr <= 1.0, f"bernoulli p must be in [0, 1], got {pr}")
    elif kind == "lognormal":
        _require(np.isfinite(_param(desc, "mu", 0.0)), "lognormal mu must be finite")
        _require(_param(desc, "sigma", 1.0) > 0, "lognormal sigma must be positive")
    return dict(desc)


@dataclass(frozen=True)
class DGPSpec:
    """A fully known semiparametric MNL data-generating process.

    ``beta`` is the (K-1, p) coefficient matrix; ``smooth`` holds one
    descriptor per non-reference category (category K is the reference,
    with zero coefficients and zero smooth function); ``x_laws`` and
    ``t_laws`` give one marginal law per covariate column.
    """

    n_categories: int
    n: int
    seed: int
    beta: np.ndarray = field(default_factory=lambda: np.zeros((1, 0)))
    smooth: tuple = ()
    x_laws: tuple = ()
    t_laws: tuple = ()

    def __post_init__(self):
        beta = np.atleast_2d(np.asarray(self.beta, dtype=np.float64))
        if beta.size == 0:
            beta = beta.reshape(self.n_categories - 1, 0)
        object.__setattr__(self, "beta", beta)
        _require(self.n_categories >= 2, "need K >= 2")
        _require(self.n >= 1, "need n >= 1")
        _require(beta.shape[0] == self.n_categories - 1,
                 f"beta must have {self.n_categories - 1} rows")
        _require(np.all(np.isfinite(beta)), "beta must be finite")
        _require(beta.shape[1] == len(self.x_laws),
                 "one x law per parametric covariate column")
        smooth = tuple(self.smooth) or tuple({"kind": "zero"}
                                             for _ in range(self.n_categories - 1))
        _require(len(smooth) == self.n_categories - 1,
                 "one smooth descriptor per non-reference category")
        q = len(self.t_laws)
        object.__setattr__(self, "smooth", tuple(validate_smooth(s, q) for s in smooth))
        object.__setattr__(self, "x_laws", tuple(validate_law(l) for l in self.x_laws))
        object.__setattr__(self, "t_laws", tuple(validate_law(l) for l in self.t_laws))

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
        sizes = ("n_categories", "n", "seed")
        missing = [key for key in sizes if key not in d]
        _require(not missing, f"simulate block lacks {', '.join(missing)}")
        try:
            K, n, seed = (config_number(d[key], key, int) for key in sizes)
        except ConfigError:
            raise ConfigError(f"simulate {', '.join(sizes)} must be integers, got "
                              f"{[d[key] for key in sizes]}") from None
        return cls(n_categories=K, n=n, seed=seed, beta=np.asarray(d.get("beta", [])),
                   smooth=tuple(d.get("smooth", ())),
                   x_laws=tuple(d.get("x_laws", ())),
                   t_laws=tuple(d.get("t_laws", ())))


def evaluate_smooth(desc: dict, T: np.ndarray) -> np.ndarray:
    """True smooth-function values at the rows of T."""
    T = np.atleast_2d(np.asarray(T, dtype=np.float64))
    kind = desc["kind"]
    if kind == "zero":
        return np.zeros(T.shape[0])
    if kind == "linear":
        slopes = np.broadcast_to(
            np.atleast_1d(np.asarray(desc.get("slopes", 0.0), dtype=float)),
            (T.shape[1],))
        return desc.get("intercept", 0.0) + T @ slopes
    if kind == "sine":
        return desc.get("amplitude", 1.0) * np.sin(desc.get("frequency", 1.0) * T[:, 0])
    if kind == "ridge-interaction":
        return desc.get("a", 1.0) * T[:, 0] * T[:, 1]
    raise ConfigError(f"unknown smooth kind {kind!r}")


def _draw_column(law: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    kind = law["kind"]
    if kind == "uniform":
        return rng.uniform(law.get("lo", 0.0), law.get("hi", 1.0), size=n)
    if kind == "normal":
        return rng.normal(law.get("mu", 0.0), law.get("sd", 1.0), size=n)
    if kind == "bernoulli":
        return (rng.random(n) < law.get("p", 0.5)).astype(np.float64)
    if kind == "lognormal":
        return rng.lognormal(law.get("mu", 0.0), law.get("sigma", 1.0), size=n)
    raise ConfigError(f"unknown covariate law {kind!r}")


def true_probabilities(spec: DGPSpec, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(n, K) category probabilities of the DGP at given covariates."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    K = spec.n_categories
    eta = np.zeros((x.shape[0], K))
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
    y = 1 + (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    y = np.minimum(y, spec.n_categories)  # guard cumsum rounding at 1.0
    return Dataset(y=y, x=x, t=t, n_categories=spec.n_categories)
