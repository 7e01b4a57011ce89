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
``draw_spectra`` draws i = 0..m-1 of a dimension once, planted draws a block
at a time through a numpy copy of that stream (``sample_uniforms``, which
takes numpy's (seed, n) SeedSequence pool and hashes only each draw's index
words).  Its ``Spectra`` store feeds every statistic; only the flag pass of
``theorem.verify_exceptional_bound`` samples again, the stored draws outside
its region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ProbabilityError, StreamMismatchError
from .spectral import Spectra, SpectrumSample, hashimoto_from_adjacency, sym_eigs

def trace_horizon(n: int) -> int:
    """Default trace horizon K(n): smallest even integer >= (log n)**2."""
    k = ceil(log(n) ** 2)
    return k + (k % 2)


def _rng(seed, *key: int) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        seed, key = seed.entropy, tuple(seed.spawn_key) + key
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_seed(seed: int, n: int, index: int) -> np.random.SeedSequence:
    """Per-draw seed stream: deterministic in (seed, n, index)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(n), int(index)))


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the
# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_U32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_BLOCK = 4096  # draws per kernel call in draw_spectra


def _words(x: int) -> list[int]:
    """x >= 0 as little-endian uint32 words, as SeedSequence splits an int."""
    out = [x & _U32]
    while x > _U32:
        x >>= 32
        out.append(x & _U32)
    return out


def _hashmix(rows: np.ndarray, const: int, mult: int) -> np.ndarray:
    """SeedSequence's hash step on each row in turn, from constant ``const``."""
    steps = [const * pow(mult, r, 1 << 32) & _U32 for r in range(len(rows) + 1)]
    consts = np.array(steps, dtype=np.uint32)[:, None]
    value = (rows ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _philox_keys(seed: int, n: int, index: np.ndarray):
    """Philox keys of ``sample_seed(seed, n, i)`` for every i in ``index``.

    ``SeedSequence(seed, spawn_key=(n, i))`` mixes i's uint32 words into the
    pool of ``SeedSequence(seed, spawn_key=(n,))``, whose hash constant has
    taken 4 steps per word of the padded seed and of n.  Only i's words are
    hashed per draw, then ``generate_state(2, uint64)``.
    """
    pool = np.random.SeedSequence(int(seed), spawn_key=(int(n),)).pool[:, None]
    hashed = max(_POOL, len(_words(int(seed)))) + len(_words(int(n)))
    for j in range(len(_words(int(index[-1])))):
        word = ((index >> np.uint64(32 * j)) & np.uint64(_U32)).astype(np.uint32)
        const = _INIT_A * pow(_MULT_A, _POOL * (hashed + j), 1 << 32) & _U32
        value = _hashmix(np.tile(word, (_POOL, 1)), const, _MULT_A)
        mixed = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * value
        pool = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(pool, _INIT_B, _MULT_B).astype(np.uint64)
    high = np.uint64(32)  # little-endian word pairs make each uint64
    return state[0] | (state[1] << high), state[2] | (state[3] << high)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of m * x, the high half from 32-bit halves."""
    low, shift = np.uint64(_U32), np.uint64(32)
    m0, m1 = np.uint64(m & _U32), np.uint64(m >> 32)
    x0, x1 = x & low, x >> shift
    p01, p10 = x0 * m1, x1 * m0
    carry = ((x0 * m0) >> shift) + (p01 & low) + (p10 & low)
    high = x1 * m1 + (p01 >> shift) + (p10 >> shift) + (carry >> shift)
    return high, x * np.uint64(m)


def _philox(key0: np.ndarray, key1: np.ndarray, counter: int) -> list[np.ndarray]:
    """Philox4x64-10 of the counter (counter, 0, 0, 0) under each key."""
    zero = np.zeros(len(key0), dtype=np.uint64)
    ctr = [np.full(len(key0), counter, dtype=np.uint64), zero, zero, zero]
    for r in range(10):
        if r:
            key0 = key0 + np.uint64(_PHILOX_W[0])
            key1 = key1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key0, lo1, hi0 ^ ctr[3] ^ key1, lo0]
    return ctr


def sample_uniforms(seed: int, n: int, start: int, count: int, p: int) -> np.ndarray:
    """The first p ``random()`` doubles of draws start..start+count-1.

    Row r equals ``Generator(Philox(sample_seed(seed, n, start + r))).random(p)``
    bit for bit: Philox counts its 4-word output blocks from 1, and each
    uint64 x maps to ``(x >> 11) * 2**-53``.  Every index of the window
    must have the same number of uint32 words (no window crosses 2**32).
    """
    stop = start + count
    if start < 0 or count < 1 or stop > 1 << 64:
        raise ValueError(f"draw window [{start}, {stop}) outside [0, 2**64)")
    if len(_words(start)) != len(_words(stop - 1)):
        raise ValueError(f"draw window [{start}, {stop}) crosses a word boundary")
    index = np.arange(count, dtype=np.uint64) + np.uint64(start)
    key0, key1 = _philox_keys(seed, n, index)
    out = np.empty((count, p))
    for first in range(0, p, 4):
        outputs = _philox(key0, key1, first // 4 + 1)
        for j, x in enumerate(outputs[: p - first]):
            out[:, first + j] = (x >> np.uint64(11)) * (1.0 / 2.0**53)
    return out


def _block_windows(m: int):
    """(start, count) of the draw blocks: at most _BLOCK draws, and no
    block crosses a uint32 word boundary of the draw index."""
    start = 0
    while start < m:
        stop = min(m, start + _BLOCK, 1 << 32 * len(_words(start)))
        yield start, stop - start
        start = stop


def _nonzero(sample: SpectrumSample) -> np.ndarray:
    eigs = sample.eigenvalues
    return eigs[eigs != 0]


def draw_spectra(model, n: int, m: int, seed: int) -> Spectra:
    """Draw samples i = 0..m-1 of dimension n once and keep their spectra.

    A model with a ``draw_block`` hook draws a block of samples at once;
    the first draw of every block is re-drawn through ``model.sample`` and
    must match bit for bit (``planted_block`` also checks that draw's raw
    uniforms).  Other models are sampled one draw at a time.
    """
    if m < 1:
        raise ValueError(f"need at least 1 sample, got {m}")
    if hasattr(model, "draw_block"):
        parts, sizes = [], [np.zeros(1, dtype=np.int64)]
        for start, count in _block_windows(m):
            values, counts = model.draw_block(n, seed, start, count)
            reference = model.sample(n, sample_seed(seed, n, start))
            if reference.n != n or not np.array_equal(
                values[: counts[0]], _nonzero(reference)
            ):
                raise StreamMismatchError(
                    f"block draw differs from model.sample at n={n}, i={start}"
                )
            parts.append(values)
            sizes.append(counts)
        offsets = np.cumsum(np.concatenate(sizes))
        return Spectra(n, m, seed, n, np.concatenate(parts), offsets)
    parts = []
    sizes = np.zeros(m + 1, dtype=np.int64)
    dim = None
    for i in range(m):
        sample = model.sample(n, sample_seed(seed, n, i))
        if dim is None:
            dim = sample.n
        elif sample.n != dim:
            raise DimensionMismatchError(f"sample dimension {sample.n} != {dim}")
        nonzero = _nonzero(sample)
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
        _plant_probabilities(self, grid[0])


def _plant_probabilities(cfg: PlantedConfig, n: int) -> list[float]:
    if n < len(cfg.fixed_part) + len(cfg.plants):
        raise ValueError(f"n={n} too small for the configured spectrum")
    probs = [p.amplitude / n**p.level for p in cfg.plants]
    for p, q in zip(cfg.plants, probs):
        if q > 1:
            raise ProbabilityError(
                f"plant ({p.ell}, {p.amplitude}, {p.level}) has probability > 1 at n={n}"
            )
    return probs


def planted_sample(cfg: PlantedConfig, n: int, seed) -> SpectrumSample:
    """Draw one spectrum: F plus independent Bernoulli plants, zeros elsewhere."""
    probs = _plant_probabilities(cfg, n)
    eigs = list(cfg.fixed_part)
    if cfg.plants:
        u = _rng(seed).random(len(cfg.plants))
        eigs += [p.ell for p, x, q in zip(cfg.plants, u, probs) if x < q]
    return SpectrumSample(eigs, n=n)


def planted_block(
    cfg: PlantedConfig, n: int, seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draws start..start+count-1 exactly as ``planted_sample`` makes them
    from ``sample_seed(seed, n, i)``: their nonzero eigenvalues in draw
    order, and how many each draw keeps.

    The raw uniforms of draw ``start`` must equal those of its per-draw
    generator bit for bit, or StreamMismatchError names n and i.
    """
    probs = _plant_probabilities(cfg, n)
    row = np.array([*cfg.fixed_part, *(p.ell for p in cfg.plants)], dtype=complex)
    fixed = len(cfg.fixed_part)
    mask = np.empty((count, len(row)), dtype=bool)
    mask[:, :fixed] = row[:fixed] != 0
    if cfg.plants:
        u = sample_uniforms(seed, n, start, count, len(probs))
        want = _rng(sample_seed(seed, n, start)).random(len(probs))
        if u[0].tobytes() != want.tobytes():
            raise StreamMismatchError(
                f"block uniforms differ from the per-draw stream at n={n}, i={start}"
            )
        mask[:, fixed:] = u < probs
    return np.broadcast_to(row, mask.shape)[mask], np.count_nonzero(mask, axis=1)


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
    seen = np.arange(len(adj)) == 0  # grow the set reachable from vertex 0
    for _ in range(len(adj)):
        seen |= adj[seen].any(axis=0)
    if not seen.all():
        raise ValueError("base graph must be connected")
    return d


@dataclass(frozen=True)
class LiftConfig:
    base_adjacency: np.ndarray
    n_grid: tuple[int, ...]
    hashimoto: bool = True
    # derived from the degree: the new spectrum's central radius and bound
    lambda0: float = field(init=False, default=0.0)
    lambda1: float = field(init=False, default=0.0)
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
        root = float(np.sqrt(d - 1))
        object.__setattr__(self, "lambda0", root if self.hashimoto else 2.0 * root)
        object.__setattr__(self, "lambda1", float(d - 1 if self.hashimoto else d))
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


# Absolute slack of model_validate's admissible set.
VALIDATE_TOL = 1e-8


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


def model_validate(cfg, samples: Sequence[SpectrumSample]) -> ValidationReport:
    """Check every sampled eigenvalue lies in B_{lambda0}(0) or [-lambda1, lambda1],
    within VALIDATE_TOL."""
    lam0, lam1, tol = cfg.lambda0, cfg.lambda1, VALIDATE_TOL
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

    def draw_block(self, n: int, seed: int, start: int, count: int):
        return planted_block(self.cfg, n, seed, start, count)

    def exact_trace(self, n: int, k: int) -> float:
        return planted_exact_trace(self.cfg, n, k)


class LiftModel(_ModelFacade):
    """Facade bundling a lift config with the sampler."""

    kind = "lift"

    def sample(self, n: int, seed) -> SpectrumSample:
        return lift_sample(self.cfg, n, seed)
