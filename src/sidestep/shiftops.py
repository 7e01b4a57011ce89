"""Polynomials in the shift operator S, where (S f)(k) = f(k+1).

A polynomial Q(z) = q0 + q1 z + ... + qt z**t acts on sequences by
(Q(S) f)(k) = sum_i q_i f(k+i), and acts exactly on polyexponentials:
on a pure exponential it multiplies by Q(base), and on p(k) * base**k it
produces another polynomial of controlled degree times base**k.

Annihilators Ann_{D,L}(z) = prod_{l in L} (z - l)**D kill every
polyexponential term with base in L and polynomial degree < D.  They are
built by repeated convolution with (z - l) and remember their linear
factors, so annihilation can be applied factor by factor; a factor whose
root matches the term's base drops the polynomial degree by exactly one
structurally, which makes the cancellation exact rather than a floating
near-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .config import BASE_TOL, coincident_pair
from .errors import BaseNotCoveredError, DuplicateBaseError, WindowTooShortError
from .polyexp import Polyexponential, _poly_eval, _trim


@dataclass(frozen=True)
class ShiftPolynomial:
    """Coefficient vector (q0..qt) of Q(z); trailing zeros trimmed.

    ``roots`` records a known linear factorization ``lead * prod(z - r)``
    when the polynomial was built from factors; it is None for polynomials
    only known by their coefficients.
    """

    coeffs: tuple[complex, ...] = (0j,)
    roots: Optional[tuple[complex, ...]] = None

    def __post_init__(self):
        coeffs = _trim(self.coeffs)
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "coeffs", coeffs)
        if self.roots is not None:
            object.__setattr__(
                self, "roots", tuple(complex(r) for r in self.roots)
            )

    @classmethod
    def identity(cls) -> "ShiftPolynomial":
        return cls((1.0 + 0j,), ())

    @classmethod
    def from_roots(cls, roots: Sequence[complex], lead: complex = 1.0) -> "ShiftPolynomial":
        coeffs = np.array([complex(lead)])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0j]))
        return cls(tuple(coeffs), tuple(complex(r) for r in roots))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)


def sp_mul(q1: ShiftPolynomial, q2: ShiftPolynomial) -> ShiftPolynomial:
    """Product polynomial; coefficient convolution, degrees add."""
    coeffs = np.convolve(np.array(q1.coeffs), np.array(q2.coeffs))
    roots = None
    if q1.roots is not None and q2.roots is not None:
        roots = q1.roots + q2.roots
    return ShiftPolynomial(tuple(coeffs), roots)


def sp_eval(q: ShiftPolynomial, z: complex) -> complex:
    """Horner evaluation of Q at z."""
    return _poly_eval(q.coeffs, z)


def annihilator(d: int, bases: Sequence[complex]) -> ShiftPolynomial:
    """Ann_{D,L}(z) = prod_{l in L} (z - l)**D, monic of degree D * #L.

    D = 0 or an empty L gives the empty product, the identity: the plain
    Markov filter.  Factors are multiplied in ascending |l| order so the
    expanded coefficients are deterministic.
    """
    if d < 0:
        raise ValueError(f"annihilator degree must be >= 0, got {d}")
    bases = [complex(b) for b in bases]
    pair = coincident_pair(bases)
    if pair is not None:
        raise DuplicateBaseError(f"bases {pair[0]} and {pair[1]} coincide within {BASE_TOL}")
    bases.sort(key=lambda z: (abs(z), z.real, z.imag))
    roots = tuple(b for b in bases for _ in range(d))
    return ShiftPolynomial.from_roots(roots)


def sp_apply_seq(q: ShiftPolynomial, values: Sequence[complex]) -> np.ndarray:
    """Apply Q(S) to a window of sequence values.

    Input f(k0..k1) gives output g(k0..k1-deg Q) with
    g(k) = sum_i q_i f(k+i); the window shrinks at the top by deg Q.
    """
    v = np.asarray(values)
    t = q.degree
    if len(v) < t + 1:
        raise WindowTooShortError(
            f"window of length {len(v)} cannot support degree {t}"
        )
    out_len = len(v) - t
    out = np.zeros(out_len, dtype=complex)
    for i, c in enumerate(q.coeffs):
        if c != 0:
            out += c * v[i : i + out_len]
    return out


def _shift_poly(coeffs: Sequence[complex], h: int) -> list[complex]:
    """Coefficients of p(k + h) given those of p(k), constant first."""
    n = len(coeffs)
    out = [0j] * n
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        hp = 1.0
        for j in range(m, -1, -1):
            out[j] += c * comb(m, j) * hp
            hp *= h
    return out


def _apply_linear_factor(
    root: complex, base: complex, coeffs: list[complex]
) -> list[complex]:
    """Coefficients of the polynomial r with (S - root)(p(k) base**k) = r(k) base**k.

    A root matching the base (within BASE_TOL) is treated as the base itself,
    so the leading coefficient drops structurally and annihilation is exact.
    """
    shifted = _shift_poly(coeffs, 1)
    if abs(root - base) <= BASE_TOL:
        # base * (p(k+1) - p(k)): degree drops by exactly one.
        return [base * (shifted[j] - coeffs[j]) for j in range(len(coeffs) - 1)]
    return [base * shifted[j] - root * coeffs[j] for j in range(len(coeffs))]


def sp_apply_polyexp(q: ShiftPolynomial, p: Polyexponential) -> Polyexponential:
    """Exact symbolic application of Q(S) to a polyexponential.

    Each term p_l(k) l**k maps to l**k * sum_i q_i p_l(k+i) l**i.  When Q
    carries a known factorization the factors are applied one by one, so a
    term annihilated in exact arithmetic comes out exactly zero here too.
    The finite-support part f(1..m) maps to g(j) = sum_i q_i f(j+i).
    """
    new_terms: list[tuple[complex, tuple[complex, ...]]] = []
    for base, coeffs in p.terms:
        if q.roots is not None:
            work = list(coeffs)
            for root in q.roots:
                work = _apply_linear_factor(root, base, work)
            lead = q.coeffs[-1]
            if lead != 1:
                work = [lead * c for c in work]
            new_terms.append((base, tuple(work)))
        else:
            acc = [0j] * len(coeffs)
            bp = 1.0 + 0j
            for i, c in enumerate(q.coeffs):
                if c != 0:
                    sh = _shift_poly(coeffs, i)
                    w = c * bp
                    for j in range(len(coeffs)):
                        acc[j] += w * sh[j]
                bp *= base
            new_terms.append((base, tuple(acc)))
    fs = p.finite_support
    m = len(fs)
    new_fs = tuple(
        sum(
            c * fs[j + i]
            for i, c in enumerate(q.coeffs)
            if c != 0 and j + i < m
        )
        for j in range(m)
    )
    return Polyexponential(tuple(new_terms), new_fs)


def minimal_annihilating_degree(p: Polyexponential, bases: Sequence[complex]) -> int:
    """Smallest D with Ann_{D,L}(S) p = 0, for L covering the bases of p.

    Equals 1 + the largest polynomial degree of p (the zero function returns
    1 by convention).  Verified by symbolic application before returning.
    """
    base_list = [complex(b) for b in bases]

    def covered(b: complex) -> bool:
        return any(abs(b - x) <= BASE_TOL for x in base_list)

    for b in p.bases:
        if not covered(b):
            raise BaseNotCoveredError(f"base {b} not in the annihilator base set")
    if p.finite_support and not covered(0j):
        raise BaseNotCoveredError("finite-support part present but 0 not in base set")
    d = max(1, p.max_degree() + 1)
    if not sp_apply_polyexp(annihilator(d, base_list), p).is_zero:
        raise AssertionError("annihilation verification failed")
    return d
