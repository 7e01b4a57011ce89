"""Exact symbolic polyexponential functions and growth-rate classification.

A polyexponential is a finite sum ``sum_l p_l(k) * l**k`` with polynomial
coefficients ``p_l`` and complex bases ``l``.  The base ``l = 0`` is
represented separately as an explicit list of values ``f(1..m)`` (a function
that vanishes for large ``k``), which keeps evaluation total.

Polynomials are stored dense, constant term first.  Values are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import BASE_TOL
from .errors import DegreeCapError, EmptyTailError

# Polynomial degrees beyond this indicate runaway symbolic growth.
DEGREE_CAP = 64


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    """Drop trailing exactly-zero coefficients."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(complex(c) for c in out)


def _poly_eval(coeffs: Sequence[complex], z: complex) -> complex:
    """Horner evaluation of the constant-first polynomial at complex z."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class Polyexponential:
    """Finite sum of ``p_l(k) * l**k`` terms plus a finite-support part.

    ``terms`` maps each base to a dense, constant-first coefficient tuple.
    No base appears twice (within ``BASE_TOL``) and no stored polynomial is
    identically zero.  ``finite_support`` holds the values f(1..m) of the
    base-0 part.
    """

    terms: tuple[tuple[complex, tuple[complex, ...]], ...] = ()
    finite_support: tuple[complex, ...] = ()

    def __post_init__(self):
        merged: list[tuple[complex, list[complex]]] = []
        for base, coeffs in self.terms:
            base = complex(base)
            coeffs = list(coeffs)
            for entry in merged:
                if abs(entry[0] - base) <= BASE_TOL:
                    old = entry[1]
                    if len(old) < len(coeffs):
                        old.extend([0j] * (len(coeffs) - len(old)))
                    for i, c in enumerate(coeffs):
                        old[i] += c
                    break
            else:
                merged.append((base, coeffs))
        clean = []
        for base, coeffs in merged:
            if abs(base) <= BASE_TOL:
                # p(k) * 0**k vanishes on k >= 1; the base-0 convention
                # lives in finite_support instead
                continue
            tc = _trim(coeffs)
            if not tc:
                continue
            if len(tc) - 1 > DEGREE_CAP:
                raise DegreeCapError(
                    f"polynomial degree {len(tc) - 1} exceeds cap {DEGREE_CAP}"
                )
            clean.append((base, tc))
        clean.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
        object.__setattr__(self, "terms", tuple(clean))
        object.__setattr__(self, "finite_support", _trim(self.finite_support))

    @classmethod
    def zero(cls) -> "Polyexponential":
        return cls()

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[complex, Sequence[complex]],
        finite_support: Sequence[complex] = (),
    ) -> "Polyexponential":
        return cls(
            tuple((complex(b), tuple(c)) for b, c in terms.items()),
            tuple(finite_support),
        )

    @property
    def bases(self) -> tuple[complex, ...]:
        return tuple(b for b, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms and not self.finite_support

    def max_degree(self) -> int:
        """Largest polynomial degree present; -1 for the zero function.

        The finite-support part of length m counts as degree m - 1, the
        smallest D - 1 for which shifting by D kills it.
        """
        deg = -1
        for _, coeffs in self.terms:
            deg = max(deg, len(coeffs) - 1)
        if self.finite_support:
            deg = max(deg, len(self.finite_support) - 1)
        return deg

    def to_records(self) -> list[dict]:
        """JSON-friendly form: one record per base, plus the 0-part."""
        recs = [
            {
                "re_base": b.real,
                "im_base": b.imag,
                "coeffs": [[c.real, c.imag] for c in coeffs],
            }
            for b, coeffs in self.terms
        ]
        if self.finite_support:
            recs.append(
                {
                    "re_base": 0.0,
                    "im_base": 0.0,
                    "finite_support": [[v.real, v.imag] for v in self.finite_support],
                }
            )
        return recs


def pe_eval(p: Polyexponential, k: int) -> complex:
    """Evaluate ``p`` at integer ``k >= 1``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc = 0j
    for base, coeffs in p.terms:
        acc += _poly_eval(coeffs, k) * base**k
    if k <= len(p.finite_support):
        acc += p.finite_support[k - 1]
    return acc


def pe_combine(
    p1: Polyexponential, p2: Polyexponential, a: complex = 1.0, b: complex = 1.0
) -> Polyexponential:
    """Linear combination ``a*p1 + b*p2`` with minimality restored."""
    terms = [(base, tuple(a * c for c in coeffs)) for base, coeffs in p1.terms]
    terms += [(base, tuple(b * c for c in coeffs)) for base, coeffs in p2.terms]
    m = max(len(p1.finite_support), len(p2.finite_support))
    fs = [
        a * (p1.finite_support[i] if i < len(p1.finite_support) else 0)
        + b * (p2.finite_support[i] if i < len(p2.finite_support) else 0)
        for i in range(m)
    ]
    return Polyexponential(tuple(terms), tuple(fs))


def pe_ell_part(p: Polyexponential, ell: complex) -> Polyexponential:
    """The single-base part of ``p`` at ``ell``, or zero if absent.

    ``ell = 0`` selects the finite-support part.
    """
    ell = complex(ell)
    if abs(ell) <= BASE_TOL:
        return Polyexponential((), p.finite_support)
    for base, coeffs in p.terms:
        if abs(base - ell) <= BASE_TOL:
            return Polyexponential(((base, coeffs),))
    return Polyexponential.zero()


def pe_split(
    p: Polyexponential, rho: float
) -> tuple[Polyexponential, Polyexponential]:
    """Split ``p`` into (terms with |base| > rho, the rest).

    The first part is the polyexponential part with respect to ``rho``; the
    second collects the remaining terms and the finite-support part.  Their
    sum is ``p``.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    big = tuple(t for t in p.terms if abs(t[0]) > rho)
    small = tuple(t for t in p.terms if abs(t[0]) <= rho)
    return Polyexponential(big), Polyexponential(small, p.finite_support)


@dataclass(frozen=True)
class GrowthEstimate:
    """Empirical growth rate of a sequence: max |f(k)|**(1/k) over a tail."""

    rate: float
    window: range = field(default_factory=lambda: range(0))

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


def growth_rate(seq: Sequence[complex], tail_fraction: float = 0.5) -> GrowthEstimate:
    """Estimate the growth rate of ``seq``, indexed f(1), f(2), ...

    Uses the last ``ceil(tail_fraction * len)`` entries; zero entries
    contribute 0.
    """
    values = np.asarray(seq)
    if len(values) < 4:
        raise ValueError(f"sequence must have length >= 4, got {len(values)}")
    if not 0 < tail_fraction <= 1:
        raise EmptyTailError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    count = int(np.ceil(tail_fraction * len(values)))
    ks = np.arange(1, len(values) + 1)[-count:]
    tail = np.abs(values[-count:])
    rates = tail ** (1.0 / ks)
    return GrowthEstimate(float(np.max(rates)), range(int(ks[0]), int(ks[-1]) + 1))
