"""Explicit parameter formulas and numerical certificates.

Two parameter calculators mirror the closed-form choices used to prove the
eigenvalue-location bounds:

* ``exceptional_params``: given (lambda0, lambda1, epsilon, alpha), pick the
  trace-length slope kappa and expansion order r0 so that outside the union
  of the central disk and shrinking windows around the larger bases, the
  expected eigenvalue count falls below n**-alpha.

* ``sidestep_params``: given additionally a level j, derive the auxiliary
  epsilon/3 quantities, the inner exceptional parameters, and the even
  annihilator degree that isolates a single base at order n**-j.

The certificates are finite-sample checks: the Markov-type inequality is an
exact pointwise statement about empirical spectra, the real-trace growth
bound is an envelope check with constants fitted on the lower half of the
k-window, and the two verifiers read the ``Spectra`` stores: ``verify_sidestep``
draws nothing, and ``verify_exceptional_bound`` re-draws only the stored draws
that fall outside its region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, inf, log
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ParameterError, PreconditionError
from .estimation import (
    CEllEstimate,
    DetectedBase,
    TraceTable,
    analyze_levels,
    estimate_C_ell,
    region_expectations,
)
from .shiftops import ShiftPolynomial, annihilator, sp_apply_seq
from .models import sample_seed
from .spectral import Region, Spectra, SpectrumSample, ein_eout, mean_real_trace

# Multiplicative headroom on the strict-inequality choice of kappa.
KAPPA_MARGIN = 0.05

# Reference annihilator size used to turn the inequality slack into a
# concrete theta0 when none is supplied at certification time.
D_REF = 2
N_BASES_REF = 1

# Headroom delta of both envelope branches, (lambda + delta)**k.
ENVELOPE_DELTA = 0.05

# Relative gap verify_sidestep allows between an amplitude and its count.
AMPLITUDE_MATCH_TOL = 0.25


@dataclass(frozen=True)
class ExceptionalParams:
    """Concrete constants certifying the exceptional-eigenvalue decay."""

    lambda0: float
    lambda1: float
    epsilon: float
    alpha: float
    kappa: float
    r0: int
    r0_bound: float
    slack: float

    @property
    def theta0(self) -> float:
        """theta0_for the reference annihilator size D_REF, N_BASES_REF."""
        return self.theta0_for(D_REF, N_BASES_REF)

    def theta0_for(self, d: int, n_bases: int) -> float:
        """Positive theta guaranteeing the decay for an annihilator of
        degree d on n_bases points: the inequality slack spread over the
        exponent budget 2 * d * n_bases."""
        return self.slack / (2.0 * max(1, d) * max(1, n_bases))

    def even_k_near(self, n: int) -> int:
        """Nearest even integer to kappa * log n."""
        k = round(self.kappa * log(n) / 2.0) * 2
        return max(2, int(k))


def exceptional_params(
    lambda0: float, lambda1: float, epsilon: float, alpha: float
) -> ExceptionalParams:
    """Pick kappa, r0, theta0 for the exceptional-eigenvalue decay n**-alpha.

    kappa exceeds (alpha+1) / log((lambda0+epsilon)/lambda0) by a 5% margin;
    r0 is one more than the ceiling of alpha + kappa * log(lambda1 /
    (lambda0+epsilon)).  Both strict inequalities are re-checked numerically
    and their minimum slack, divided by 2 * D_REF * N_BASES_REF, realizes
    theta0.  ParameterError names the argument at fault: epsilon when
    (lambda0 + epsilon) / lambda0 rounds to 1 or overflows, and epsilon or
    alpha when r0 or the terms of its slack are too large to be exact.
    """
    for name, bad in (
        ("lambda0", lambda0 <= 0),
        ("lambda1", lambda1 <= lambda0),
        ("epsilon", epsilon <= 0),
        ("alpha", alpha <= 0),
    ):
        if bad:
            raise ParameterError(
                f"need 0 < lambda0 < lambda1, epsilon > 0, alpha > 0; "
                f"got ({lambda0}, {lambda1}, {epsilon}, {alpha})",
                name,
            )
    gap = log((lambda0 + epsilon) / lambda0)
    if gap == 0:
        raise ParameterError("lambda0 + epsilon rounds to lambda0", "epsilon")
    if gap == inf:
        raise ParameterError("(lambda0 + epsilon) / lambda0 overflows", "epsilon")
    ratio = log(lambda1) - log(lambda0 + epsilon)
    r0_bound = alpha + (alpha + 1.0) * ratio / gap
    kappa = (1.0 + KAPPA_MARGIN) * (alpha + 1.0) / gap
    top = alpha + kappa * ratio
    # floats from 2**52 on are 1 apart: r0 = ceil(top) + 1 and the slack
    # r0 - alpha - kappa * ratio are exact only below it
    if not (top < 2.0**52 and alpha < 2.0**52 and abs(kappa * ratio) < 2.0**52):
        # the larger factor of kappa * ratio ~ (alpha + 1) * ratio / gap is at fault
        blame = "alpha" if alpha + 1.0 >= ratio / gap else "epsilon"
        raise ParameterError(
            f"r0 = ceil({alpha:.6g} + {kappa * ratio:.6g}) + 1 is past exact floats",
            blame,
        )
    r0 = max(1, ceil(top) + 1)
    slack_first = kappa * gap - alpha - 1.0
    slack_second = r0 - alpha - kappa * ratio
    slack = min(slack_first, slack_second)
    if slack <= 0:
        raise AssertionError("parameter slack must be positive by construction")
    return ExceptionalParams(
        lambda0, lambda1, epsilon, alpha, kappa, r0, r0_bound, slack
    )


@dataclass(frozen=True)
class SidestepParams:
    """Constants for isolating level-j outlier weights."""

    lambda0: float
    lambda1: float
    j: int
    epsilon: float
    epsilon_tilde: float
    kappa0: float
    alpha_tilde: float
    r_tilde: int
    r1: int
    theta1: float
    d_tilde: int
    inner: ExceptionalParams

    def widetilde_d_inequality(self, d: int) -> float:
        """Slack of kappa0*log(L0+2e~) - j - 1 >= kappa0*log(L1) + 1 - theta1*d."""
        lhs = self.kappa0 * log(self.lambda0 + 2 * self.epsilon_tilde) - self.j - 1.0
        rhs = self.kappa0 * log(self.lambda1) + 1.0 - self.theta1 * d
        return lhs - rhs


def sidestep_params(
    lambda0: float,
    lambda1: float,
    j: int,
    epsilon: float,
) -> SidestepParams:
    """Derive the level-j isolation constants.

    epsilon_tilde = epsilon / 3; kappa0 makes
    kappa0*log(lambda0+2e~) - j - 2 = kappa0*log(lambda0+e~) an equality;
    alpha_tilde and r_tilde follow with kappa = kappa0; r1 and theta1 come
    from the inner exceptional parameters at (epsilon_tilde, alpha_tilde);
    d_tilde is the smallest even integer whose inequality slack is >= 0.
    """
    if epsilon <= 0 or j < 0:
        raise ParameterError(
            f"need epsilon > 0 and j >= 0, got ({epsilon}, {j})",
            "epsilon" if epsilon <= 0 else "j",
        )
    if lambda0 + epsilon > lambda1:
        raise ParameterError(
            f"hypothesis violated: lambda0 + epsilon = {lambda0 + epsilon} "
            f"> lambda1 = {lambda1}",
            "epsilon",
        )
    et = epsilon / 3.0
    gap0 = log((lambda0 + 2 * et) / (lambda0 + et))
    if gap0 == 0:
        raise ParameterError(
            "lambda0 + epsilon / 3 rounds to lambda0 + 2 * epsilon / 3", "epsilon"
        )
    if lambda1 + et == inf:
        raise ParameterError("lambda1 + epsilon / 3 overflows a float", "epsilon")
    kappa0 = (j + 2.0) / gap0
    alpha_tilde = j + 1.0 + kappa0 * (log(lambda1) - log(lambda0 + 2 * et))
    r_tilde = j + 1 + ceil(kappa0 * (log(lambda1 + et) - log(lambda0 + 2 * et)))
    inner = exceptional_params(lambda0, lambda1, et, alpha_tilde)
    r1 = max(r_tilde, inner.r0)
    theta1 = inner.theta0
    params = SidestepParams(
        lambda0,
        lambda1,
        j,
        epsilon,
        et,
        kappa0,
        alpha_tilde,
        r_tilde,
        r1,
        theta1,
        2 * ceil((alpha_tilde + 1.0) / (2.0 * theta1)),
        inner,
    )
    # the float slack never decreases in d, but the closed form can miss
    # its least even root either way: bisect over d = 2h, h >= 1
    def short(h: int) -> bool:
        return params.widetilde_d_inequality(2 * h) < 0

    lo, hi = 0, params.d_tilde // 2
    while short(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return replace(params, d_tilde=2 * hi)


@dataclass(frozen=True)
class Certificate:
    """One checked inequality lhs <= rhs: one row of ``certificates.csv``.

    ``passed`` is decided by the routine that made the certificate, each
    with its own tolerance; ``k`` is 0 for checks that have no trace index.
    """

    kind: str
    n: int
    k: int
    lhs: float
    rhs: float
    passed: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def certify_markov(
    samples: Sequence[SpectrumSample],
    d: int,
    bases: Sequence[float],
    theta: float,
    epsilon: float,
    k: int,
    n: int,
    lambda0: float,
) -> Certificate:
    """Exact Markov-type filter inequality for an empirical spectrum family.

    lhs = n**(-theta*d*#L) * (lambda0+epsilon)**k * eout(region),
    rhs = the annihilator in the shift operator applied to the mean
    real-eigenvalue power sums, evaluated at k.  For even d and k and real
    bases (|Im| <= 1e-12) this holds sample by sample, so the
    certificate must pass whenever the samples obey the eigenvalue-location
    model (nonreal inside the central disk, real within [-lambda1, lambda1]).
    It passes when rhs - lhs >= -1e-9 * max(|lhs|, |rhs|, 1), or within
    1e-12 of sum|q_i| * max|mean power sum|, the size of the terms the
    annihilator cancels: an eigenvalue on a point of L makes rhs a
    difference of such terms.
    """
    if d < 0 or d % 2:
        raise PreconditionError(f"annihilator degree must be even and >= 0, got {d}")
    if k < 2 or k % 2:
        raise PreconditionError(f"k must be even and >= 2, got {k}")
    if theta <= 0 or epsilon <= 0:
        raise PreconditionError("theta and epsilon must be positive")
    if any(abs(complex(b).imag) > 1e-12 for b in bases):
        raise PreconditionError(f"bases must be real, got {list(bases)}")
    points = tuple(float(np.real(b)) for b in bases)
    region = Region(lambda0 + epsilon, points, float(n) ** (-theta))
    _, eout = ein_eout(samples, region)
    ann = annihilator(d, points)
    ks = np.arange(k, k + ann.degree + 1)
    mrt = mean_real_trace(samples, ks)
    # real points and real power sums: the imaginary part is exactly +-0
    rhs = float(sp_apply_seq(ann, mrt.astype(complex))[0].real)
    lhs = float(n) ** (-theta * d * len(points)) * (lambda0 + epsilon) ** k * eout
    cancelled = float(np.sum(np.abs(ann.coeffs)) * np.max(np.abs(mrt)))
    passed = rhs - lhs >= -1e-9 * max(abs(lhs), abs(rhs), 1.0, 1e-3 * cancelled)
    return Certificate("markov", n, k, lhs, rhs, passed)


@dataclass(frozen=True)
class EnvelopeCertificate:
    """Growth-envelope check on the annihilated mean-trace sequences.

    Constants are fitted on the lower half of the k-window and the
    domination is then required on the whole window, so residual terms that
    outgrow the (lambda0 + delta)**k branch fail at large k.  Each row is
    one (n, k) with lhs the annihilated value and rhs the envelope plus its
    error floor; ``worst`` has the least slack relative to its scale.
    """

    a_const: float
    b_const: float
    rows: tuple[Certificate, ...]
    d_sufficient: bool
    worst: Certificate

    @property
    def passed(self) -> bool:
        return self.worst.passed


def certify_real_trace_bound(
    tables: Sequence[TraceTable],
    bases: Sequence[float],
    d: int,
    r: int,
    levels: Sequence[Sequence[DetectedBase]],
    lambda0: float,
    lambda1: float,
) -> EnvelopeCertificate:
    """Check |Ann(S) applied to the mean traces| against the two-branch
    envelope A*(lambda0+delta)**k * n + B*(lambda1+delta)**k * n**-r, with
    delta = ENVELOPE_DELTA.

    The nonreal part of the trace is itself of central growth, so full-trace
    tables are a sound stand-in for the real-eigenvalue trace here.  The
    certificate records whether d reaches the minimal annihilating degree of
    the detected structure ``levels`` (bases per fitted level, as returned
    by ``analyze_levels``); running below it is allowed and expected to fail.
    """
    if d < 0:
        raise PreconditionError(f"annihilator degree must be >= 0, got {d}")
    points = tuple(float(b) for b in bases)
    ann = annihilator(d, points)
    d_sufficient = d >= 1 and (
        not points
        or all(
            any(abs(db.ell - p) <= 0.05 * max(1.0, abs(p)) for p in points)
            for found in levels
            for db in found
        )
    )
    # |Ann|(S) applied to |means| and to stderrs sizes the rounding and the
    # sampling error of Ann(S) applied to the means
    abs_ann = ShiftPolynomial(tuple(np.abs(np.array(ann.coeffs))))
    deg = ann.degree
    parts = []
    for t in sorted(tables, key=lambda t: t.n):
        ks = t.ks[: len(t.ks) - deg].tolist()
        value = np.abs(np.real(sp_apply_seq(ann, t.means.astype(complex))))
        mag_in = np.real(sp_apply_seq(abs_ann, np.abs(t.means)))
        se_in = np.real(sp_apply_seq(abs_ann, t.stderrs))
        parts.append((
            [t.n] * len(ks),
            ks,
            value,
            1e-12 * mag_in + 5.0 * se_in,
            [(lambda0 + ENVELOPE_DELTA) ** k * t.n for k in ks],
            [(lambda1 + ENVELOPE_DELTA) ** k * float(t.n) ** (-r) for k in ks],
        ))
    n, k, value, floor, u_c, u_r = (np.concatenate(col) for col in zip(*parts))
    k_values = sorted(set(k.tolist()))
    fit = k <= k_values[len(k_values) // 2]
    a_const = float(np.max(np.maximum(value - floor, 0.0)[fit] / u_c[fit]))
    b_const = float(
        np.max(np.maximum(value - a_const * u_c - floor, 0.0)[fit] / u_r[fit])
    )
    envelope = a_const * u_c + b_const * u_r
    rhs = envelope + floor
    slack = rhs - value
    scale = np.maximum(np.maximum(1.0, value), envelope)
    passed = slack >= -1e-9 * scale
    rows = tuple(
        Certificate("real-trace", *row)
        for row in zip(*(col.tolist() for col in (n, k, value, rhs, passed)))
    )
    worst = rows[int(np.argmin(slack / scale))]
    return EnvelopeCertificate(a_const, b_const, rows, d_sufficient, worst)


def _trend_slope(ns: Sequence[int], values: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(values) against log(n); None if any
    value is nonpositive (treated as an exact zero, better than any decay)."""
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        return None
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(v)
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


# Finite-sample surrogate for o()/O() claims: the log-log slope may sit
# above the target exponent by at most this much.
TREND_TOL = 0.15


@dataclass(frozen=True)
class BoundReport:
    """Per-n rows of the exceptional-count bound, its tail verdict and the
    flagged eigenvalue locations: a real one as a float, a conjugate pair as
    the complex number in the upper half-plane."""

    rows: tuple[Certificate, ...]
    worst: Certificate
    passed: bool
    flagged: tuple[float | complex, ...] = ()


def verify_exceptional_bound(
    model,
    stores: Mapping[int, Spectra],
    params: ExceptionalParams,
    bases: Sequence[float],
    theta: float,
) -> BoundReport:
    """Empirical check of eout <= n**-alpha outside the union region.

    eout is counted over the stored draws of each dimension n; each row has
    lhs = eout, rhs = n**-alpha and k = 0, and passes when eout <= rhs +
    1e-12.  The precondition theta <= theta0 is enforced with the reference
    annihilator size for the supplied base count.  The check must hold on
    the tail (second half) of the dimension grid; ``worst`` is the failing
    row with the least slack, or the least-slack row when none fails.  When
    the check fails at some n, the store shows which of that n's first
    min(m, 2000) draws have an eigenvalue outside the region; only those
    draws are sampled again from ``model``, in draw order, and the
    locations of their outside eigenvalues are flagged, pointing at any
    base missing from the supplied set.  A location is z rounded to two
    decimals, with |Im z| for its imaginary part; it is a float when that
    part rounds to 0.
    """
    theta0 = params.theta0_for(D_REF, len(bases))
    if theta > theta0 + 1e-12:
        raise PreconditionError(f"theta = {theta} exceeds theta0 = {theta0}")
    rows = []
    flagged: dict[float | complex, int] = {}
    for n in sorted(stores):
        spectra = stores[n]
        region = Region(params.lambda0 + params.epsilon, bases, float(n) ** (-theta))
        (ein, eout), = region_expectations(spectra, [region])
        threshold = float(n) ** (-params.alpha)
        ok = eout <= threshold + 1e-12
        rows.append(Certificate("exceptional", int(n), 0, eout, threshold, ok))
        if not ok:
            # the store holds draws 0..count-1 bit for bit, less their zeros,
            # which lie in the central disk; re-draw the draws it shows outside
            count = min(spectra.m, 2000)
            values = spectra.values[: spectra.offsets[count]]
            hits = np.searchsorted(
                spectra.offsets, np.flatnonzero(~region.member_mask(values)), "right"
            ) - 1
            for i in dict.fromkeys(hits.tolist()):
                eigs = model.sample(n, sample_seed(spectra.seed, n, i)).eigenvalues
                outside = eigs[~region.member_mask(eigs)]
                for z in outside:
                    re, im = round(float(z.real), 2), round(abs(float(z.imag)), 2)
                    key = complex(re, im) if im else re
                    flagged[key] = flagged.get(key, 0) + 1
    passed = all(r.passed for r in rows[len(rows) // 2 :])
    worst = min([r for r in rows if not r.passed] or rows, key=lambda r: r.slack)
    flags = tuple(sorted(flagged, key=lambda x: -flagged[x]))
    return BoundReport(tuple(rows), worst, passed, flags)


@dataclass(frozen=True)
class SidestepReport:
    """Combined level-j verification: scaled eout decay plus per-base
    window counts against detected amplitudes."""

    j: int
    detected: tuple[DetectedBase, ...]
    c_estimates: tuple[CEllEstimate, ...]
    rows: tuple[dict, ...]
    trend_slope: Optional[float]
    passed: bool
    context: dict = field(default_factory=dict)


def verify_sidestep(
    stores: Mapping[int, Spectra],
    j: int,
    params: SidestepParams,
    k_max: int = 20,
    theta: float = 0.3,
    max_bases: int = 4,
) -> SidestepReport:
    """Replay the level-j picture on the stored draws of each dimension.

    Fits the expansion to order j+2, detects the level-j bases, then checks
    (a) the n**j-scaled eout of the union region trends to zero across the
    grid and (b) the n**j-scaled window count near each base agrees with the
    detected amplitude within AMPLITUDE_MATCH_TOL.  lambda0 and lambda1
    come from ``params``; nothing is drawn.  At desk scale theta defaults
    to 0.3 for window isolation; whether theta <= theta1 is recorded in the
    context rather than enforced, with the m of the smallest-n store.
    """
    n_grid = sorted(stores)
    # one remainder level beyond j when the grid affords it
    r = j + 2 if len(n_grid) >= j + 3 else j + 1
    if len(n_grid) < r + 1:
        raise ValueError(f"need at least {r + 1} grid points for level {j}")
    _, _, levels = analyze_levels(
        stores, k_max, r, params.lambda0, params.lambda1, max_bases
    )
    detected = tuple(levels[j])
    points = tuple(d.ell for d in detected)
    rows = []
    for n in n_grid:
        region = Region(
            params.lambda0 + params.epsilon, points, float(n) ** (-theta)
        )
        (ein, eout), = region_expectations(stores[n], [region])
        rows.append({"n": n, "eout": eout, "scaled_eout": eout * n**j})
    slope = _trend_slope(n_grid, [row["scaled_eout"] for row in rows])
    eout_ok = (slope is None) or (slope <= TREND_TOL)
    c_estimates = tuple(estimate_C_ell(stores, d.ell, j, theta) for d in detected)
    amp_ok = not any(
        abs(ce.extrapolated - d.amplitude)
        > AMPLITUDE_MATCH_TOL * max(abs(ce.extrapolated), abs(d.amplitude), 1e-12)
        for ce, d in zip(c_estimates, detected)
    )
    passed = eout_ok and amp_ok
    return SidestepReport(
        j,
        detected,
        c_estimates,
        tuple(rows),
        slope,
        passed,
        {
            "theta": theta,
            "theta1": params.theta1,
            "theta_within_theory": theta <= params.theta1,
            "epsilon": params.epsilon,
            "m": stores[n_grid[0]].m,
            "k_max": k_max,
        },
    )
