"""Monte Carlo trace estimation, 1/n expansion fitting, and base detection.

The pipeline: sample spectra once per dimension (``draw_spectra``),
tabulate mean power sums per k with standard errors, fit the coefficients
of the expansion in powers of 1/n across the dimension grid by weighted
least squares, locate real exponential bases in a fitted coefficient
sequence with the matrix-pencil method, and estimate outlier weights by
counting eigenvalues in shrinking windows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import DETECT_K_MIN, trace_horizon
from .errors import IllConditionedError, SidestepError, WindowTooShortError
from .spectral import Region, Spectra

# Matrix-pencil settings.
RANK_TOL = 1e-8          # singular values kept relative to the largest
REAL_BASE_TOL = 1e-6     # |Im z| <= tol * |z| counts as a real base
SEPARATION = 0.02        # bases must exceed lambda0 * (1 + SEPARATION)
AMPLITUDE_FLOOR = 1e-3   # relative to the largest fitted amplitude
LAMBDA1_SLACK = 0.05     # detected |base| may exceed lambda1 by this much
NOISE_SIGMA = 4.0        # contribution must exceed this many stderr units
NUM_EPS = 1e-13          # relative float-noise floor of the expansion fit
TINY = np.finfo(float).smallest_normal  # least se whose reciprocal is finite

# Stored entries per power-sum block: bounds the temporaries only.
_CHUNK = 2048

# numpy's complex power raises to an integer exponent |k| < 100 by a
# multiplication chain, and by a general complex pow beyond.
_CHAIN_STOP = 100


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Mean power sums E[sum lambda**k] for one dimension n.

    ``covariance`` holds the covariance matrix of the mean vector across k
    (sample covariance / m); the trace noise at different k comes from the
    same draws and is strongly correlated, which downstream significance
    tests need.  The standard errors are the roots of its diagonal.
    """

    n: int
    ks: np.ndarray
    means: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        for name in ("ks", "means", "covariance"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k = len(self.ks)
        if (self.means.shape != (k,) or self.covariance.shape != (k, k)
                or np.any(np.diag(self.covariance) < 0)):
            raise ValueError("means and covariance must fit ks, with no negative variance")

    @property
    def stderrs(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _real_powers(values: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Re(values**k) for ks = 1..k_max, shape (k_max, len(values)).

    The bits are those of numpy's complex power.  When every value is real
    and k < _CHAIN_STOP, that power is the chain x, x*x, x*(x*x), then binary
    squaring: x**k = x**(k - t) * x**t for the top bit t of k, and x**t comes
    from squaring x**(t/2).  The same float64 products give the real part
    bit for bit, up to the sign of an underflowed zero, which a sum that
    starts at +0 cannot see.  Complex values and k >= _CHAIN_STOP go through
    the complex power itself.
    """
    if np.any(values.imag):
        return (values ** ks[:, None]).real
    chain = min(len(ks), _CHAIN_STOP - 1)
    out = np.empty((len(ks), len(values)))
    out[0] = values.real
    for k in range(2, chain + 1):
        top = 1 << (k.bit_length() - 1)
        if k == top:
            np.multiply(out[top // 2 - 1], out[top // 2 - 1], out=out[k - 1])
        else:
            np.multiply(out[k - top - 1], out[top - 1], out=out[k - 1])
    out[chain:] = (values ** ks[chain:, None]).real
    return out


def _draw_power_sums(spectra: Spectra, lo: int, hi: int, ks: np.ndarray) -> np.ndarray:
    """Real power sums sum(lambda**k) of entries lo..hi-1, shape (hi - lo, len(ks)).

    One ``bincount`` per k adds each entry's stored values in stored order,
    from +0; an entry that keeps no values gets a zero row.
    """
    offsets = spectra.offsets[lo : hi + 1]
    owner = np.repeat(np.arange(hi - lo), np.diff(offsets))
    powers = _real_powers(spectra.values[offsets[0] : offsets[-1]], ks)
    sums = np.empty((hi - lo, len(ks)))
    for k, row in enumerate(powers):
        sums[:, k] = np.bincount(owner, weights=row, minlength=hi - lo)
    return sums


def _scaled_ints(sums: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Integers a[k] and exponents q[k] with sums[:, k] = a[k] * 2**q[k]
    exactly; a[k] is None where the column is not finite."""
    finite = np.isfinite(sums)
    mant, exp = np.frexp(np.where(finite, sums, 0.0))
    digits = (mant * 2.0**53).astype(np.int64)  # exact: 53-bit mantissas
    exp -= 53
    used = digits != 0
    q = np.where(used, exp, np.iinfo(exp.dtype).max).min(axis=0)
    q = np.where(used.any(axis=0), q, 0)  # an all-zero column needs no scale
    shift = np.where(used, exp - q, 0)
    ints = [
        list(map(operator.lshift, d, b)) if ok else None
        for d, b, ok in zip(digits.T.tolist(), shift.T.tolist(), finite.all(axis=0))
    ]
    return ints, q.tolist()


def _rounded(num: int, den: int, q: int) -> float:
    """num * 2**q / den, rounded once (``int / int`` is correctly rounded)."""
    return num / (den << -q) if q < 0 else (num << q) / den


def mc_expected_trace(spectra: Spectra, k_max: int) -> TraceTable:
    """Monte Carlo estimate of the mean power-sum trace for k = 1..k_max.

    The power sums of each stored entry, weighted by how many draws are
    that entry, give the sample mean and the covariance of the mean
    (sample covariance / m).  Each mean and covariance entry is the exact
    rational of those float power sums, rounded once: every float is an
    integer times a power of two, so the sums of c * I_k and c * I_k * I_l
    are formed in Python integers and divided once.  So the bits depend
    only on the multiset of draws, not on how the store groups them or on
    their order; a column that is the same in every draw gets exactly zero
    variance.  A power sum that is not finite, or a variance that overflows
    a float, raises SidestepError naming n and the first such k.

    An entry's power sum adds its stored values in stored order, from +0,
    and takes the powers of real values with k < 100 by numpy's
    complex-power multiplication chain (``_real_powers``), which plain
    float ``x**k`` through libm ``pow`` would not match.  No BLAS call is
    made, so the result does not depend on the BLAS thread count.
    """
    n, m = spectra.n, spectra.m
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    if k_max < 1 or k_max > trace_horizon(n):
        raise ValueError(f"k_max={k_max} outside 1..K(n)={trace_horizon(n)}")
    ks = np.arange(1, k_max + 1)
    entries = len(spectra.counts)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite: raised below
        sums = np.concatenate([
            _draw_power_sums(spectra, lo, min(lo + _CHUNK, entries), ks)
            for lo in range(0, entries, _CHUNK)
        ])
    ints, exps = _scaled_ints(sums)
    counts = spectra.counts.tolist()
    totals = []
    means = np.empty(k_max)
    covariance = np.empty((k_max, k_max))
    for k, a in enumerate(ints):
        if a is None:
            raise _not_finite(n, k + 1, "a draw's power sum is not finite")
        weighted = list(map(operator.mul, counts, a))
        totals.append(sum(weighted))
        # a mean of finite floats lies between them: it cannot overflow
        means[k] = _rounded(totals[k], m, exps[k])
        try:
            for l in range(k, -1, -1):  # the variance first: it bounds the rest
                scatter = m * sum(map(operator.mul, weighted, ints[l]))
                scatter -= totals[k] * totals[l]
                covariance[k, l] = covariance[l, k] = _rounded(
                    scatter, (m - 1) * m * m, exps[k] + exps[l]
                )
        except OverflowError:
            raise _not_finite(n, k + 1, "the stderr overflows a float") from None
    return TraceTable(n, ks, means, covariance)


def _not_finite(n: int, k: int, why: str) -> SidestepError:
    return SidestepError(f"trace table at n={n} is not finite at k={k} ({why})")


def exact_trace_table(model, n: int, k_max: int) -> TraceTable:
    """Zero-noise table from a model's closed-form expected trace."""
    ks = np.arange(1, k_max + 1)
    means = np.array([model.exact_trace(n, int(k)) for k in ks])
    return TraceTable(n, ks, means, np.zeros((k_max, k_max)))


@dataclass(frozen=True, eq=False)
class ExpansionEstimate:
    """Fitted coefficients c_i(k) of the expansion in powers of 1/n.

    ``level_covs`` propagates the trace-table covariances through the fit:
    entry i is the covariance matrix of c_i(k) across the k-window.  Exact
    input still carries the fit's own floating-point noise floor here.
    """

    r: int
    ks: np.ndarray
    coeffs: np.ndarray        # shape (len(ks), r); column i is c_i(k)
    residuals: np.ndarray     # weighted residual norm per k
    condition: float
    level_covs: tuple         # r matrices of shape (len(ks), len(ks))

    def level(self, i: int) -> np.ndarray:
        return self.coeffs[:, i]

    def level_covariance(self, i: int) -> np.ndarray:
        return self.level_covs[i]

    def restrict(self, k_min: int) -> "ExpansionEstimate":
        mask = self.ks >= k_min
        return ExpansionEstimate(
            self.r,
            self.ks[mask],
            self.coeffs[mask],
            self.residuals[mask],
            self.condition,
            tuple(c[np.ix_(mask, mask)] for c in self.level_covs),
        )


def fit_expansion(tables: Sequence[TraceTable], r: int) -> ExpansionEstimate:
    """Weighted least squares of the trace means against (1, 1/n, ..., n**-(r-1)).

    Every table must hold the same ks, or WindowTooShortError is raised.
    Each mean is weighted by 1/se**2 (its rows scaled by 1/se), where se =
    max(stderr, NUM_EPS * |mean|): a stderr below the mean's rounding floor
    weighs the same as a zero one.  The weight is unit where se is zero, and
    a subnormal se counts as TINY, so that 1/se stays finite.
    Tables are sorted by n internally, so the coefficients do not depend on
    input order.
    """
    if r < 1:
        raise ValueError("expansion order r must be >= 1")
    tables = sorted(tables, key=lambda t: t.n)
    ns = [t.n for t in tables]
    if len(set(ns)) != len(ns):
        raise ValueError("duplicate dimensions in the table list")
    if len(ns) < r + 1:
        raise ValueError(f"need at least r+1 = {r + 1} dimensions, got {len(ns)}")
    ks = tables[0].ks
    if any(not np.array_equal(t.ks, ks) for t in tables):
        raise WindowTooShortError("tables do not share one k-window")
    # C-contiguous (k, n): the einsum of the noise floor below sums in an
    # order, hence to bits, that depends on the layout of its operands
    means = np.stack([t.means for t in tables], axis=1)
    stderrs = np.stack([t.stderrs for t in tables], axis=1)
    x = 1.0 / np.asarray(ns, dtype=float)
    design = np.vander(x, r, increasing=True)
    col_scale = np.linalg.norm(design, axis=0)
    coeffs = np.zeros((len(ks), r))
    residuals = np.zeros(len(ks))
    solve_maps = np.zeros((len(ks), r, len(ns)))
    worst_cond = 0.0
    for row, (k, y, se) in enumerate(zip(ks, means, stderrs)):
        # a stderr below the mean's own rounding floor is rounding noise
        se = np.maximum(se, NUM_EPS * np.abs(y))
        sw = np.where(se > 0, 1.0 / np.maximum(se, TINY), 1.0)
        a = design * sw[:, None]
        cond = float(np.linalg.cond(a))
        worst_cond = max(worst_cond, cond)
        if cond > 1e12:
            raise IllConditionedError(
                f"fit system condition {cond:.3e} exceeds 1e12 at k={k}",
                condition=cond,
                diagnostics={"k": int(k), "n_grid": tuple(ns), "r": r},
            )
        sol, *_ = np.linalg.lstsq(a / col_scale, y * sw, rcond=None)
        c = sol / col_scale
        coeffs[row] = c
        residuals[row] = float(np.linalg.norm((y - design @ c) * sw))
        # linear map y -> c, needed for noise propagation
        solve_maps[row] = (
            np.linalg.pinv(a / col_scale) * sw[None, :]
        ) / col_scale[:, None]
    covs = [np.zeros((len(ks), len(ks))) for _ in range(r)]
    for t_idx, table in enumerate(tables):
        for i in range(r):
            gain = solve_maps[:, i, t_idx]
            covs[i] += np.outer(gain, gain) * table.covariance
    # floating-point floor of the fit itself: a coefficient that sits far
    # below another column's contribution carries coherent roundoff of this
    # size, which downstream detection must not mistake for signal
    for i in range(r):
        num_scale = NUM_EPS * np.einsum(
            "kn,kn->k", np.abs(solve_maps[:, i, :]), np.abs(means)
        )
        covs[i] += np.outer(num_scale, num_scale)
    return ExpansionEstimate(r, ks, coeffs, residuals, worst_cond, tuple(covs))


@dataclass(frozen=True)
class DetectedBase:
    """One recovered exponential base with its weight."""

    ell: float
    amplitude: float
    level: int
    residual: float


def _pencil_poles(values: np.ndarray, max_poles: int) -> np.ndarray:
    n = len(values)
    cols = n // 2
    rows = n - cols
    h0 = np.empty((rows, cols))
    h1 = np.empty((rows, cols))
    for j in range(cols):
        h0[:, j] = values[j : j + rows]
        h1[:, j] = values[j + 1 : j + 1 + rows]
    u, s, vh = np.linalg.svd(h0, full_matrices=False)
    if s[0] == 0:
        return np.array([])
    rank = int(np.count_nonzero(s >= RANK_TOL * s[0]))
    rank = min(rank, max_poles)
    core = (u[:, :rank].conj().T @ h1 @ vh[:rank].conj().T) / s[:rank][None, :]
    return np.linalg.eigvals(core)


def detect_bases(
    values: Sequence[float],
    ks: Sequence[int],
    lambda0: float,
    lambda1: Optional[float] = None,
    max_bases: int = 4,
    level: int = 0,
    noise_cov: Optional[np.ndarray] = None,
) -> list[DetectedBase]:
    """Fit values(k) ~ sum C_l * l**k and return the real bases beyond lambda0.

    Matrix-pencil poles of the Hankel pencil are kept when they are real
    (within REAL_BASE_TOL), exceed lambda0 * (1 + SEPARATION) in absolute
    value, and stay below lambda1 + LAMBDA1_SLACK.  Amplitudes come from a
    linear least-squares fit of pure exponentials (constant coefficients).
    A base is dropped when its amplitude falls below AMPLITUDE_FLOOR times
    the largest fitted amplitude, or when the amplitude is not NOISE_SIGMA
    of its own propagated standard error away from zero, under
    ``noise_cov``, the covariance of the input sequence across the window
    (None is zero noise, which drops no base); Monte
    Carlo error in a fitted coefficient sequence is coherent across k, so
    it masquerades as a tiny genuine exponential and has to be rejected
    statistically.  An empty list is a valid outcome.
    """
    values = np.asarray(values, dtype=float)
    ks = np.asarray(ks, dtype=int)
    if len(values) != len(ks):
        raise ValueError("values and ks must have equal length")
    if len(values) < 2 * max_bases + 2:
        raise WindowTooShortError(
            f"window of length {len(values)} < 2 * max_bases + 2 = {2 * max_bases + 2}"
        )
    window = (len(ks), len(ks))
    cov = np.zeros(window) if noise_cov is None else np.asarray(noise_cov, dtype=float)
    if cov.shape != window:
        raise ValueError("noise_cov must match the k-window")
    poles = _pencil_poles(values, max_bases)
    kept: list[float] = []
    for z in poles:
        if abs(z.imag) > REAL_BASE_TOL * max(abs(z), 1e-300):
            continue
        x = float(z.real)
        if abs(x) <= lambda0 * (1.0 + SEPARATION):
            continue
        if lambda1 is not None and abs(x) > lambda1 + LAMBDA1_SLACK:
            continue
        if any(abs(x - y) <= 1e-9 * max(1.0, abs(x)) for y in kept):
            continue
        kept.append(x)

    while kept:
        z = np.array(kept, dtype=float)
        design = z[None, :] ** ks[:, None]
        amps, *_ = np.linalg.lstsq(design, values, rcond=None)
        # propagated amplitude covariance P cov P'
        pinv = np.linalg.pinv(design)
        amp_se = np.sqrt(np.maximum(np.diag(pinv @ cov @ pinv.T), 0.0))
        c_min = AMPLITUDE_FLOOR * float(np.max(np.abs(amps)))
        drop = [
            i
            for i, a in enumerate(amps)
            if a < c_min or abs(a) < NOISE_SIGMA * amp_se[i]
        ]
        if not drop:
            resid = float(np.linalg.norm(values - design @ amps))
            out = [
                DetectedBase(float(b), float(a), level, resid)
                for b, a in zip(kept, amps)
            ]
            out.sort(key=lambda d: -abs(d.ell))
            return out
        kept = [b for i, b in enumerate(kept) if i not in drop]
    return []


def detect_levels(
    estimate: ExpansionEstimate,
    lambda0: float,
    lambda1: Optional[float] = None,
    max_bases: int = 4,
) -> list[list[DetectedBase]]:
    """Bases beyond lambda0 in each fitted level, one list per level.

    Detection runs on the k >= DETECT_K_MIN part of the window, with each
    level's propagated covariance as its noise model.
    """
    est = estimate.restrict(DETECT_K_MIN)
    return [
        detect_bases(
            est.level(i),
            est.ks,
            lambda0,
            lambda1,
            max_bases,
            level=i,
            noise_cov=est.level_covariance(i),
        )
        for i in range(est.r)
    ]


def analyze_levels(
    stores: Mapping[int, Spectra],
    k_max: int,
    r: int,
    lambda0: float,
    lambda1: Optional[float],
    max_bases: int,
) -> tuple[list[TraceTable], ExpansionEstimate, list[list[DetectedBase]]]:
    """The shared analysis pass: reduce every store to its trace table, fit
    the expansion to order r, and detect the bases of each level.

    Stores are reduced in increasing n, one looked up at a time.
    """
    tables = [mc_expected_trace(stores[n], k_max) for n in sorted(stores)]
    estimate = fit_expansion(tables, r)
    return tables, estimate, detect_levels(estimate, lambda0, lambda1, max_bases)


def find_smallest_j(
    estimate: ExpansionEstimate,
    lambda0: float,
    lambda1: Optional[float] = None,
    max_bases: int = 4,
) -> Optional[int]:
    """Smallest level i whose fitted coefficient carries a base beyond lambda0.

    Returns None when every level up to r-1 is base-free.
    """
    levels = detect_levels(estimate, lambda0, lambda1, max_bases)
    return next((i for i, found in enumerate(levels) if found), None)


def region_expectations(
    spectra: Spectra, regions: Sequence[Region]
) -> list[tuple[float, float]]:
    """Empirical (ein, eout) for several regions over the stored draws."""
    eins = np.array([spectra.region_count(r) for r in regions], dtype=float)
    eins /= spectra.m
    return [(float(e), float(spectra.dim - e)) for e in eins]


@dataclass(frozen=True)
class CEllEstimate:
    """Scaled eigenvalue counts near one base, per dimension, with the
    tail average used as the final estimate."""

    ell: float
    level: int
    theta: float
    per_n: tuple[tuple[int, float], ...]
    extrapolated: float


def estimate_C_ell(
    stores: Mapping[int, Spectra], ell: float, j: int, theta: float
) -> CEllEstimate:
    """Estimate the outlier weight at ell from window counts.

    Per stored dimension n, counts eigenvalues inside the closed ball of
    radius n**-theta about ell, scaled by n**j; the final value averages
    the two largest dimensions (the correction term has unknown sign and
    order, so plain averaging beats extrapolation here).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    rows = []
    for n in sorted(stores):
        region = Region(None, (float(ell),), float(n) ** (-theta))
        (ein, _), = region_expectations(stores[n], [region])
        rows.append((int(n), float(ein * n**j)))
    extrapolated = float(np.mean([v for _, v in rows[-2:]]))
    return CEllEstimate(float(ell), j, theta, tuple(rows), extrapolated)
