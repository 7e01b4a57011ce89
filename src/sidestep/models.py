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
counter-based Philox generator keyed by seed and sample/edge indices.  A
planted dimension has one stream, keyed by (seed, n), whose counter counts
draws (``_plant_rng``), so a block of draws is one ``random`` call.
Changing a stream re-pins its model's outputs (README, "planted stream
contract").  ``draw_spectra`` draws i = 0..m-1 of a dimension once, planted
draws a block at a time and grouped into their distinct draws; its
``Spectra`` store feeds every statistic, and only the flag pass of
``theorem.verify_exceptional_bound`` samples again, the stored draws
outside its region.

The model parameters (``Plant``, ``PlantedConfig``, ``LiftConfig`` and its
base-graph rules) and config parsing live in ``sidestep.config``, which
needs no numpy, so a config of either kind parses without it; this module
holds the samplers and re-exports ``LiftConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import LiftConfig, PlantedConfig, _plant_probabilities
from .errors import DimensionMismatchError, StreamMismatchError
from .spectral import Spectra, SpectrumSample, hashimoto_from_adjacency, sym_eigs


def _rng(seed, *key: int) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        seed, key = seed.entropy, tuple(seed.spawn_key) + key
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_seed(seed: int, n: int, index: int) -> np.random.SeedSequence:
    """Per-draw seed stream: deterministic in (seed, n, index)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(n), int(index)))


_BLOCK = 4096  # draws per block in draw_spectra


_STREAM_SEEDS: dict[tuple, np.random.SeedSequence] = {}


def _stream_seed(entropy, key: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence(entropy, spawn_key=key)``, hashed once per stream and
    kept for up to 64 streams; callers only read it."""
    seq = _STREAM_SEEDS.get((entropy, key))
    if seq is None:
        if len(_STREAM_SEEDS) >= 64:
            _STREAM_SEEDS.clear()
        seq = _STREAM_SEEDS[entropy, key] = np.random.SeedSequence(entropy, spawn_key=key)
    return seq


def _plant_rng(seed, p: int) -> np.random.Generator:
    """Planted draw i of ``sample_seed(seed, n, i)`` with p plants: the Philox
    stream keyed by ``SeedSequence(seed, spawn_key=(n,))`` from counter block
    i*ceil(p/4) on.  Any other seed starts its own stream at block 0."""
    key, i = (), 0
    if isinstance(seed, np.random.SeedSequence) and seed.spawn_key:
        seed, (*key, i) = seed.entropy, seed.spawn_key
    bg = np.random.Philox(_stream_seed(seed, tuple(key)))
    return np.random.Generator(bg.advance(i * -(-p // 4)))


def _nonzero(sample: SpectrumSample) -> np.ndarray:
    eigs = sample.eigenvalues
    return eigs[eigs != 0]


def draw_spectra(model, n: int, m: int, seed: int) -> Spectra:
    """Draw samples i = 0..m-1 of dimension n once and keep their spectra.

    A model with a ``draw_block`` hook draws up to _BLOCK samples at once,
    as the distinct draws of the block and the one each draw is; the store
    keeps each distinct draw once, in order of its first draw.  The first
    and last draw of every block are re-drawn through ``model.sample`` and
    must match bit for bit (``planted_block`` also checks those draws' raw
    uniforms).  Other models are sampled one draw at a time, one entry per
    draw.
    """
    if m < 1:
        raise ValueError(f"need at least 1 sample, got {m}")
    if hasattr(model, "draw_block"):
        index: dict[bytes, int] = {}  # a distinct draw's bytes -> its entry
        parts, sizes = [], [0]
        draws = np.empty(m, dtype=np.int64)
        for start in range(0, m, _BLOCK):
            count = min(_BLOCK, m - start)
            values, counts, rows = model.draw_block(n, seed, start, count)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            entries = [values[bounds[e] : bounds[e + 1]] for e in range(len(counts))]
            for i in (start, start + count - 1):
                drawn = entries[rows[i - start]]
                reference = model.sample(n, sample_seed(seed, n, i))
                if reference.n != n or not np.array_equal(drawn, _nonzero(reference)):
                    raise StreamMismatchError(
                        f"block draw differs from model.sample at n={n}, i={i}"
                    )
            local = np.empty(len(entries), dtype=np.int64)
            for e, entry in enumerate(entries):
                key = entry.tobytes()
                if key not in index:
                    index[key] = len(parts)
                    parts.append(entry)
                    sizes.append(len(entry))
                local[e] = index[key]
            draws[start : start + count] = local[rows]
        return Spectra(n, m, seed, n, np.concatenate(parts), np.cumsum(sizes), draws)
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
    values = np.concatenate(parts)
    return Spectra(n, m, seed, dim, values, np.cumsum(sizes), np.arange(m))


def planted_sample(cfg: PlantedConfig, n: int, seed) -> SpectrumSample:
    """Draw one spectrum: F plus independent Bernoulli plants, zeros elsewhere;
    plant q is present when the q-th double of ``_plant_rng`` is below C/n**j."""
    probs = _plant_probabilities(cfg, n)
    eigs = list(cfg.fixed_part)
    u = _plant_rng(seed, len(probs)).random(len(probs))
    eigs += [p.ell for p, x, q in zip(cfg.plants, u, probs) if x < q]
    return SpectrumSample(eigs, n=n)


def planted_block(
    cfg: PlantedConfig, n: int, seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws start..start+count-1 exactly as ``planted_sample`` makes them
    from ``sample_seed(seed, n, i)``, read in one ``random((count, 4s))``
    call, grouped by which plants are present: the nonzero eigenvalues of
    each distinct draw, concatenated in order of its first draw, how many
    each keeps, and the distinct draw of each draw.  The raw uniforms of
    the first and last draw must equal their per-draw generators' bit for
    bit, or StreamMismatchError names n and i.
    """
    probs = _plant_probabilities(cfg, n)
    p = len(probs)
    row = np.array([*cfg.fixed_part, *(q.ell for q in cfg.plants)], dtype=complex)
    fixed = len(cfg.fixed_part)
    rng = _plant_rng(sample_seed(seed, n, start), p)
    u = rng.random((count, 4 * -(-p // 4)))[:, :p]
    for i in (start, start + count - 1):
        want = _plant_rng(sample_seed(seed, n, i), p).random(p)
        if u[i - start].tobytes() != want.tobytes():
            raise StreamMismatchError(
                f"block uniforms differ from the per-draw stream at n={n}, i={i}"
            )
    # one spare False column keeps each packed key at least a byte wide
    present = np.zeros((count, p + 1), dtype=bool)
    np.less(u, probs, out=present[:, :p])
    keys = np.packbits(present, axis=1)
    _, first, inverse = np.unique(
        keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)  # distinct draws in order of their first draw
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mask = np.empty((len(order), len(row)), dtype=bool)
    mask[:, :fixed] = row[:fixed] != 0
    mask[:, fixed:] = present[first[order], :p]
    values = np.broadcast_to(row, mask.shape)[mask]
    return values, np.count_nonzero(mask, axis=1), rank[inverse.ravel()]


def planted_exact_trace(cfg: PlantedConfig, n: int, k: int) -> float:
    """Exact expected power sum: sum_F l**k + sum_plants C * ell**k / n**j."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = sum(x**k for x in cfg.fixed_part)
    total += sum(p.amplitude * p.ell**k / n**p.level for p in cfg.plants)
    return float(total)


def complete_graph(v: int) -> np.ndarray:
    """Adjacency matrix of the complete graph on v vertices."""
    return np.ones((v, v), dtype=int) - np.eye(v, dtype=int)


def _lift_adjacency(cfg: LiftConfig, n: int, seed) -> np.ndarray:
    v = len(cfg.base_adjacency)
    edges = [(u, w) for u in range(v) for w in range(u + 1, v) if cfg.base_adjacency[u][w]]
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
    base = np.array(cfg.base_adjacency)
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
