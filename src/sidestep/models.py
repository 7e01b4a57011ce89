"""Random matrix models presented as samplable spectrum generators.

Two families:

* ``planted``: an exactly solvable synthetic model.  The spectrum is a fixed
  multiset F inside [-lambda0, lambda0], padded with zeros; independently for
  each plant (ell, C, j) one dedicated slot becomes ell with probability
  C / n**j.  The expected power-sum trace has the closed form
  sum_F l**k + sum_plants C * ell**k * n**(-j), which serves as the ground
  truth oracle for the estimation pipeline.

* ``lift``: random degree-n permutation lifts of a fixed d-regular base
  graph.  Each base edge carries a uniform permutation; the lift adjacency
  spectrum minus one copy of the base spectrum is the new spectrum (size
  v * (n-1)), read off exactly from one eigensolve of the lift adjacency
  with the base part deflated, and optionally mapped through the
  directed-edge quadratic to the circle/interval picture with
  lambda0 = sqrt(d-1), lambda1 = d - 1.

Sampling is a pure function of (config, n, seed): streams come from a
counter-based Philox generator keyed by seed and sample/edge indices.
``draw_spectra`` is the one loop over the draws i = 0..m-1 of a dimension;
its ``Spectra`` store feeds every statistic, so no draw is made twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ProbabilityError
from .spectral import Spectra, SpectrumSample, hashimoto_from_adjacency, sym_eigs

def trace_horizon(n: int) -> int:
    """Default trace horizon K(n): smallest even integer >= (log n)**2."""
    k = ceil(log(n) ** 2)
    return k + (k % 2)


def _rng(seed, *key: int) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + key
        )
    elif isinstance(seed, (tuple, list)):
        ss = np.random.SeedSequence(entropy=tuple(int(s) for s in seed), spawn_key=key)
    else:
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_seed(seed: int, n: int, index: int) -> np.random.SeedSequence:
    """Per-draw seed stream: deterministic in (seed, n, index)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(n), int(index)))


def draw_spectra(model, n: int, m: int, seed: int) -> Spectra:
    """Draw samples i = 0..m-1 of dimension n once and keep their spectra."""
    if m < 1:
        raise ValueError(f"need at least 1 sample, got {m}")
    parts = []
    sizes = np.zeros(m + 1, dtype=np.int64)
    dim = None
    for i in range(m):
        sample = model.sample(n, sample_seed(seed, n, i))
        if dim is None:
            dim = sample.n
        elif sample.n != dim:
            raise DimensionMismatchError(f"sample dimension {sample.n} != {dim}")
        eigs = sample.eigenvalues
        nonzero = eigs[eigs != 0]
        parts.append(nonzero)
        sizes[i + 1] = len(nonzero)
        if len(parts) == 4096:  # bound the count of small arrays alive
            parts = [np.concatenate(parts)]
    return Spectra(n, m, seed, dim, np.concatenate(parts), np.cumsum(sizes))


@dataclass(frozen=True)
class Plant:
    """One planted outlier: eigenvalue ell appears with probability C / n**j."""

    ell: float
    amplitude: float
    level: int

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("plant amplitude must be positive")
        if self.level < 1:
            raise ValueError("plant level must be >= 1")


@dataclass(frozen=True)
class PlantedConfig:
    lambda0: float
    lambda1: float
    n_grid: tuple[int, ...]
    fixed_part: tuple[float, ...] = ()
    plants: tuple[Plant, ...] = ()

    def __post_init__(self):
        if not 0 < self.lambda0 < self.lambda1:
            raise ValueError("need 0 < lambda0 < lambda1")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(
            self, "fixed_part", tuple(float(x) for x in self.fixed_part)
        )
        for x in self.fixed_part:
            if abs(x) > self.lambda0:
                raise ValueError(f"fixed eigenvalue {x} outside [-lambda0, lambda0]")
        for p in self.plants:
            if not self.lambda0 < abs(p.ell) <= self.lambda1:
                raise ValueError(f"plant base {p.ell} outside (lambda0, lambda1]")
        n_min = grid[0]
        for p in self.plants:
            if p.amplitude / n_min**p.level > 1:
                raise ProbabilityError(
                    f"plant ({p.ell}, {p.amplitude}, {p.level}) has probability > 1 at n={n_min}"
                )
        if len(self.fixed_part) + len(self.plants) > n_min:
            raise ValueError("fixed part and plants exceed the smallest dimension")


def planted_sample(cfg: PlantedConfig, n: int, seed) -> SpectrumSample:
    """Draw one spectrum: F plus independent Bernoulli plants, zeros elsewhere."""
    if n < len(cfg.fixed_part) + len(cfg.plants):
        raise ValueError(f"n={n} too small for the configured spectrum")
    for p in cfg.plants:
        if p.amplitude / n**p.level > 1:
            raise ProbabilityError(f"plant probability C/n^j > 1 at n={n}")
    eigs = list(cfg.fixed_part)
    if cfg.plants:
        u = _rng(seed).random(len(cfg.plants))
        eigs += [p.ell for p, x in zip(cfg.plants, u) if x < p.amplitude / n**p.level]
    return SpectrumSample(eigs, n=n)


def planted_exact_trace(cfg: PlantedConfig, n: int, k: int) -> float:
    """Exact expected power sum: sum_F l**k + sum_plants C * ell**k / n**j."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = sum(x**k for x in cfg.fixed_part)
    total += sum(p.amplitude * p.ell**k / n**p.level for p in cfg.plants)
    return float(total)


def _validate_regular(adj: np.ndarray) -> int:
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("base adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("base adjacency must be symmetric")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("base adjacency must be 0/1")
    if np.any(np.diag(adj) != 0):
        raise ValueError("base graph must have no self loops")
    degrees = adj.sum(axis=1)
    d = int(degrees[0])
    if not np.all(degrees == d):
        raise ValueError("base graph must be regular")
    # connectivity by breadth-first search
    v = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in np.nonzero(adj[u])[0]:
                if int(w) not in seen:
                    seen.add(int(w))
                    nxt.append(int(w))
        frontier = nxt
    if len(seen) != v:
        raise ValueError("base graph must be connected")
    return d


@dataclass(frozen=True)
class LiftConfig:
    base_adjacency: np.ndarray
    n_grid: tuple[int, ...]
    hashimoto: bool = True
    lambda0: float = 0.0
    lambda1: float = 0.0
    degree: int = field(init=False, default=0)

    def __post_init__(self):
        adj = np.asarray(self.base_adjacency, dtype=int)
        adj.setflags(write=False)
        object.__setattr__(self, "base_adjacency", adj)
        d = _validate_regular(adj)
        object.__setattr__(self, "degree", d)
        if d < 3 and self.hashimoto:
            raise ValueError("directed-edge mapping needs degree >= 3")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.lambda0 == 0.0:
            object.__setattr__(
                self,
                "lambda0",
                float(np.sqrt(d - 1)) if self.hashimoto else 2.0 * float(np.sqrt(d - 1)),
            )
        if self.lambda1 == 0.0:
            object.__setattr__(
                self, "lambda1", float(d - 1) if self.hashimoto else float(d)
            )
        if not 0 < self.lambda0 < self.lambda1:
            raise ValueError("need 0 < lambda0 < lambda1")


def complete_graph(v: int) -> np.ndarray:
    """Adjacency matrix of the complete graph on v vertices."""
    return np.ones((v, v), dtype=int) - np.eye(v, dtype=int)


def _lift_adjacency(cfg: LiftConfig, n: int, seed) -> np.ndarray:
    v = cfg.base_adjacency.shape[0]
    edges = [(u, w) for u in range(v) for w in range(u + 1, v) if cfg.base_adjacency[u, w]]
    A = np.zeros((v * n, v * n))
    for e_idx, (u, w) in enumerate(edges):
        perm = _rng(seed, e_idx).permutation(n)
        rows = u * n + np.arange(n)
        cols = w * n + perm
        A[rows, cols] = 1.0
        A[cols, rows] = 1.0
    return A


def lift_sample(cfg: LiftConfig, n: int, seed) -> SpectrumSample:
    """Sample a degree-n lift; return the new (non-inherited) spectrum.

    The lift adjacency A commutes with the fiber average P = I_v (x) J_n/n,
    and A P = B (x) J_n/n for the base adjacency B.  So the deflated matrix
    A - (B + (d+1) I_v) (x) J_n/n has spectrum {-(d+1)}^v together with the
    new spectrum, which lies in [-d, d]: dropping its v smallest eigenvalues
    leaves exactly the v * (n - 1) new ones.  With ``cfg.hashimoto`` they are
    mapped through the quadratic root map, doubling the count.
    """
    if n < 1:
        raise ValueError(f"lift degree must be >= 1, got {n}")
    base = cfg.base_adjacency
    v = base.shape[0]
    shift = np.kron(base + (cfg.degree + 1) * np.eye(v), np.full((n, n), 1.0 / n))
    new = sym_eigs(_lift_adjacency(cfg, n, seed) - shift)[v:]
    if cfg.hashimoto:
        eigs = hashimoto_from_adjacency(new, cfg.degree)
    else:
        eigs = new.astype(complex)
    return SpectrumSample(eigs)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking sampled eigenvalues against the admissible set."""

    n_samples: int
    n_eigenvalues: int
    n_violations: int
    examples: tuple[tuple[int, complex], ...] = ()

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def model_validate(
    cfg, samples: Sequence[SpectrumSample], tol: float = 1e-8
) -> ValidationReport:
    """Check every sampled eigenvalue lies in B_{lambda0}(0) or [-lambda1, lambda1]."""
    lam0, lam1 = cfg.lambda0, cfg.lambda1
    total = 0
    bad = 0
    examples: list[tuple[int, complex]] = []
    for i, s in enumerate(samples):
        eigs = s.eigenvalues
        total += s.n
        ok = np.abs(eigs) <= lam0 + tol
        ok |= (np.abs(eigs.imag) <= tol) & (np.abs(eigs.real) <= lam1 + tol)
        for z in eigs[~ok]:
            bad += 1
            if len(examples) < 20:
                examples.append((i, complex(z)))
    return ValidationReport(len(samples), total, bad, tuple(examples))


class _ModelFacade:
    """A config with its envelope radii and dimension grid."""

    def __init__(self, cfg):
        self.cfg = cfg

    @property
    def lambda0(self) -> float:
        return self.cfg.lambda0

    @property
    def lambda1(self) -> float:
        return self.cfg.lambda1

    @property
    def n_grid(self) -> tuple[int, ...]:
        return self.cfg.n_grid


class PlantedModel(_ModelFacade):
    """Facade bundling a planted config with the sampler and oracle."""

    kind = "planted"

    def sample(self, n: int, seed) -> SpectrumSample:
        return planted_sample(self.cfg, n, seed)

    def exact_trace(self, n: int, k: int) -> float:
        return planted_exact_trace(self.cfg, n, k)


class LiftModel(_ModelFacade):
    """Facade bundling a lift config with the sampler."""

    kind = "lift"

    def sample(self, n: int, seed) -> SpectrumSample:
        return lift_sample(self.cfg, n, seed)
