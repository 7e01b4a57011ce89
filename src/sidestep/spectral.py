"""Region geometry, spectrum samples and stores, and eigensolvers.

Regions are unions of a closed disk about 0 and finitely many small closed
disks about real points; membership uses closed balls throughout, so
boundary points count as inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonSymmetricError, SpectralRangeError

# Absolute tolerance on imaginary parts when deciding whether an eigenvalue
# is real.
PAIR_TOL = 1e-9


@dataclass(frozen=True)
class Region:
    """Union of the closed disk B_{center_radius}(0) and closed disks of
    radius ``point_radius`` about each of ``points``.

    ``center_radius=None`` omits the central disk entirely; note that a
    radius of 0 still denotes the closed ball {0}.
    """

    center_radius: float | None = None
    points: tuple[float, ...] = ()
    point_radius: float = 0.0

    def __post_init__(self):
        if self.center_radius is not None and self.center_radius < 0:
            raise ValueError("radii must be nonnegative")
        if self.point_radius < 0:
            raise ValueError("radii must be nonnegative")
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))

    def member_mask(self, eigs: np.ndarray) -> np.ndarray:
        """Vectorized membership test over an eigenvalue array."""
        if self.center_radius is None:
            mask = np.zeros(len(eigs), dtype=bool)
        else:
            mask = np.abs(eigs) <= self.center_radius
        for p in self.points:
            mask |= np.abs(eigs - p) <= self.point_radius
        return mask

    def count(self, values: np.ndarray, size: int, times=None) -> int:
        """Members of a multiset of ``size`` eigenvalues: ``values``, value i
        ``times[i]`` times (once each without ``times``), and zeros for the
        rest."""
        if times is None:
            times = np.ones(len(values), dtype=np.int64)
        inside = int(times[self.member_mask(values)].sum())
        if self.member_mask(np.zeros(1))[0]:
            inside += size - int(times.sum())
        return inside


@dataclass(frozen=True, eq=False)
class SpectrumSample:
    """One sampled n x n matrix, represented by its eigenvalue multiset.

    ``eigenvalues`` holds the nonzero eigenvalues (explicit zeros are
    accepted too) and the other ``n - len(eigenvalues)`` are 0, as in
    ``Spectra``; ``n`` defaults to ``len(eigenvalues)``.
    """

    eigenvalues: np.ndarray
    weight: float = 1.0
    n: int | None = None

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=complex)
        eigs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)
        if self.n is None:
            object.__setattr__(self, "n", len(eigs))
        if not 0 < self.weight <= 1:
            raise ValueError(f"weight must lie in (0, 1], got {self.weight}")
        if len(eigs) > self.n:
            raise ValueError(f"{len(eigs)} eigenvalues exceed n={self.n}")


@dataclass(frozen=True, eq=False)
class Spectra:
    """All m draws of dimension n under one seed, each distinct draw kept once.

    The store holds entries: entry e owns ``values[offsets[e]:offsets[e + 1]]``,
    nonzero eigenvalues in their stored order, and ``dim`` minus that many
    zeros.  Draw i is entry ``draws[i]``, and ``counts[e]`` draws are entry
    e; every entry is some draw's.  A planted store keeps each distinct
    draw once, a lift store one entry per draw.  A zero adds nothing to a
    power sum and lies in a region or not as a whole, so the store answers
    every count and trace question about the draws exactly.  ``draws`` is
    held in the smallest unsigned integer type that names every entry.
    """

    n: int
    m: int
    seed: int
    dim: int
    values: np.ndarray
    offsets: np.ndarray
    draws: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        draws = np.asarray(self.draws)
        if values.ndim != 1 or offsets.ndim != 1 or len(offsets) < 2:
            raise ValueError("need 1-d values and at least 2 offsets")
        entries = len(offsets) - 1
        sizes = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != len(values):
            raise ValueError("offsets must run from 0 to len(values)")
        if np.any(sizes < 0) or np.any(sizes > self.dim):
            raise ValueError(f"each entry must keep 0..dim={self.dim} values")
        if np.any(values == 0):
            raise ValueError("stored values must be nonzero")
        if self.m < 1 or draws.shape != (self.m,) or draws.dtype.kind not in "iu":
            raise ValueError(f"need one integer entry index per draw, m={self.m}")
        if draws.min() < 0 or draws.max() >= entries:
            raise ValueError(f"draw entry indices must lie in 0..{entries - 1}")
        counts = np.bincount(draws.astype(np.intp), minlength=entries)
        if not counts.all():
            raise ValueError(f"entry {int(np.argmin(counts))} is no draw's")
        draws = draws.astype(np.min_scalar_type(entries - 1))
        for name, arr in (("values", values), ("offsets", offsets),
                          ("draws", draws), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def entry(self, e: int) -> np.ndarray:
        """The stored values of entry e, a view."""
        return self.values[self.offsets[e] : self.offsets[e + 1]]

    def sample(self, i: int, weight: float = 1.0) -> SpectrumSample:
        """Draw i, a view of its entry's stored values."""
        return SpectrumSample(self.entry(self.draws[i]), weight=weight, n=self.dim)

    def first_draws(self, count: int) -> list[SpectrumSample]:
        """Draws 0..count-1 as a weighted family: one sample per entry among
        them, in entry order, weighted by its share of the count draws."""
        times = np.bincount(self.draws[:count], minlength=len(self.counts))
        return [
            SpectrumSample(self.entry(e), weight=int(times[e]) / count, n=self.dim)
            for e in np.flatnonzero(times)
        ]

    def owners(self) -> np.ndarray:
        """The entry of each stored value."""
        return np.repeat(np.arange(len(self.counts)), np.diff(self.offsets))

    def region_count(self, region: Region) -> int:
        """Eigenvalues inside the region, summed over all m draws."""
        return region.count(self.values, self.m * self.dim, self.counts[self.owners()])

    def save(self, path) -> None:
        """Write an uncompressed ``.npz``; equal stores give equal bytes."""
        np.savez(
            path,
            n=self.n,
            m=self.m,
            seed=str(self.seed),  # any int, without pickling
            dim=self.dim,
            values=self.values,
            offsets=self.offsets,
            draws=self.draws,
        )

    @classmethod
    def load(cls, path) -> "Spectra":
        with np.load(path) as data:
            return cls(
                int(data["n"]),
                int(data["m"]),
                int(str(data["seed"])),
                int(data["dim"]),
                data["values"],
                data["offsets"],
                data["draws"],
            )


def ein_eout(samples: Iterable[SpectrumSample], region: Region) -> tuple[float, float]:
    """Expected number of eigenvalues inside / outside the region.

    Weights must sum to 1 (within 1e-9); ein + eout = n up to the same
    rounding.  All samples must share one dimension.
    """
    ein_parts: list[float] = []
    eout_parts: list[float] = []
    weights: list[float] = []
    n = None
    for s in samples:
        if n is None:
            n = s.n
        elif s.n != n:
            raise DimensionMismatchError(f"sample dimension {s.n} != {n}")
        inside = region.count(s.eigenvalues, s.n)
        ein_parts.append(s.weight * inside)
        eout_parts.append(s.weight * (s.n - inside))
        weights.append(s.weight)
    if n is None:
        raise ValueError("no samples given")
    total = fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"sample weights sum to {total}, expected 1")
    return fsum(ein_parts), fsum(eout_parts)


def mean_real_trace(
    samples: Sequence[SpectrumSample], ks: Sequence[int]
) -> np.ndarray:
    """Weighted mean of RealTrace(M, k) across samples, for each k in ks."""
    ks = np.asarray(ks, dtype=int)
    acc = np.zeros(len(ks))
    for s in samples:
        eigs = s.eigenvalues
        re = eigs.real[np.abs(eigs.imag) <= PAIR_TOL]
        re = re[re != 0]
        acc += s.weight * np.sum(re[None, :] ** ks[:, None], axis=1)
    return acc


def sym_eigs(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    LAPACK's symmetric solver (``np.linalg.eigvalsh``) on the symmetrized
    input.
    """
    A = np.array(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-9 * scale:
        raise NonSymmetricError("matrix is not symmetric within 1e-9")
    return np.linalg.eigvalsh((A + A.T) / 2.0)


def hashimoto_from_adjacency(mus: Sequence[float], d: int) -> np.ndarray:
    """Map adjacency eigenvalues mu to directed-edge operator eigenvalues.

    Each mu yields both roots of lambda**2 - mu*lambda + (d-1) = 0.  Nonreal
    roots land on the circle of radius sqrt(d-1).  The constant +-1 blocks of
    the full directed-edge spectrum cancel in new-spectrum differences and
    are not emitted here.
    """
    if d < 3:
        raise ValueError(f"degree must be >= 3, got {d}")
    mus = np.asarray(mus, dtype=float)
    if len(mus) and float(np.abs(mus).max()) > d + 1e-9:
        bad = mus[np.abs(mus) > d + 1e-9][0]
        raise SpectralRangeError(f"|mu| = {abs(bad)} exceeds degree {d}")
    mus = np.clip(mus, -d, d)
    disc = mus * mus - 4.0 * (d - 1)
    sq = np.sqrt(disc.astype(complex))
    out = np.empty(2 * len(mus), dtype=complex)
    out[0::2] = (mus + sq) / 2.0
    out[1::2] = (mus - sq) / 2.0
    return out
