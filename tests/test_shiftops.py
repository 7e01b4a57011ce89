"""Shift-operator polynomials: products, annihilators, sequence and
symbolic application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidestep import (
    Polyexponential,
    ShiftPolynomial,
    annihilator,
    minimal_annihilating_degree,
    pe_eval,
    sp_apply_polyexp,
    sp_apply_seq,
    sp_eval,
    sp_mul,
)
from sidestep.errors import (
    BaseNotCoveredError,
    DuplicateBaseError,
    WindowTooShortError,
)


def test_mul_difference_of_squares():
    q = sp_mul(ShiftPolynomial((-1, 1)), ShiftPolynomial((1, 1)))
    assert q.coeffs == (-1 + 0j, 0j, 1 + 0j)


def test_mul_identity():
    q = ShiftPolynomial((2.0, -1.0, 3.0))
    assert sp_mul(q, ShiftPolynomial.identity()).coeffs == q.coeffs


def test_mul_hand_convolution():
    # (z-2)(z-3) = z^2 - 5z + 6
    q = sp_mul(ShiftPolynomial((-2, 1)), ShiftPolynomial((-3, 1)))
    assert q.coeffs == (6 + 0j, -5 + 0j, 1 + 0j)


def test_annihilator_single_base():
    q = annihilator(1, [1.0])
    assert q.coeffs == (-1 + 0j, 1 + 0j)


def test_annihilator_expand_square():
    # (z^2 - 1)^2 = z^4 - 2 z^2 + 1
    q = annihilator(2, [-1.0, 1.0])
    assert np.allclose(q.coeffs, [1, 0, -2, 0, 1])
    assert q.degree == 4


def test_annihilator_two_bases():
    q = annihilator(1, [2.0, 3.0])
    assert np.allclose(q.coeffs, [6, -5, 1])


def test_annihilator_duplicate_error():
    with pytest.raises(DuplicateBaseError):
        annihilator(1, [2.0, 2.0 + 1e-12])


def test_eval_roots_and_values():
    q = ShiftPolynomial((6, -5, 1))
    assert sp_eval(q, 2.0) == 0
    assert sp_eval(ShiftPolynomial((-1, 1)), 1.0) == 0
    assert sp_eval(ShiftPolynomial((1, 0, -2, 0, 1)), 2.0) == 9


def test_apply_seq_finite_difference():
    # oracle: first difference of squares is 2k + 1
    f = np.array([float(k * k) for k in range(1, 11)])
    g = sp_apply_seq(ShiftPolynomial((-1, 1)), f)
    want = np.array([2 * k + 1.0 for k in range(1, 10)])
    assert np.allclose(g, want)
    assert g[2] == 7.0


def test_apply_seq_root_annihilation():
    f = np.array([2.0**k for k in range(1, 12)])
    g = sp_apply_seq(ShiftPolynomial((-2, 1)), f)
    assert np.allclose(g, 0.0)


def test_apply_seq_identity():
    f = np.arange(1.0, 8.0)
    g = sp_apply_seq(ShiftPolynomial.identity(), f)
    assert np.array_equal(g, f)


def test_apply_seq_window_error():
    with pytest.raises(WindowTooShortError):
        sp_apply_seq(ShiftPolynomial((1, 1, 1)), [1.0, 2.0])


def test_apply_polyexp_degree_shift():
    # (S - 3)(k 2^k) = (2 - k) 2^k; cross-check g(1) = f(2) - 3 f(1)
    p = Polyexponential.from_terms({2.0: [0.0, 1.0]})
    out = sp_apply_polyexp(ShiftPolynomial((-3, 1), roots=(3.0,)), p)
    assert out.terms == (((2 + 0j), (2 + 0j, -1 + 0j)),)
    f = lambda k: k * 2.0**k
    assert pe_eval(out, 1) == pytest.approx(f(2) - 3 * f(1))


def test_apply_polyexp_annihilation_exact():
    p = Polyexponential.from_terms({2.0: [0.0, 1.0]})
    out = sp_apply_polyexp(annihilator(2, [2.0]), p)
    assert out.is_zero


def test_apply_polyexp_leading_coefficient():
    # (S - 1)(k 2^k) = (k + 2) 2^k; leading coefficient (2 - 1) * 1
    p = Polyexponential.from_terms({2.0: [0.0, 1.0]})
    out = sp_apply_polyexp(ShiftPolynomial((-1, 1), roots=(1.0,)), p)
    assert out.terms == (((2 + 0j), (2 + 0j, 1 + 0j)),)


def test_apply_polyexp_matches_sequence_application():
    rng = np.random.default_rng(29)
    for _ in range(100):
        deg = int(rng.integers(0, 5))
        q = ShiftPolynomial(tuple(rng.uniform(-2, 2, deg + 1)))
        p = Polyexponential.from_terms(
            {rng.uniform(-3, 3): list(rng.uniform(-1, 1, rng.integers(1, 4)))},
            finite_support=list(rng.uniform(-1, 1, rng.integers(0, 3))),
        )
        ks = np.arange(1, 20)
        seq = np.array([pe_eval(p, int(k)) for k in ks])
        numeric = sp_apply_seq(q, seq)
        symbolic = sp_apply_polyexp(q, p)
        for idx, k in enumerate(ks[: len(numeric)]):
            want = numeric[idx]
            got = pe_eval(symbolic, int(k))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_apply_polyexp_factored_and_direct_agree():
    rng = np.random.default_rng(31)
    for _ in range(50):
        roots = tuple(rng.uniform(-2, 2, rng.integers(1, 4)))
        factored = ShiftPolynomial.from_roots(roots)
        direct = ShiftPolynomial(factored.coeffs)  # factorization forgotten
        p = Polyexponential.from_terms(
            {rng.uniform(-3, 3): list(rng.uniform(-1, 1, 3))}
        )
        a = sp_apply_polyexp(factored, p)
        b = sp_apply_polyexp(direct, p)
        for k in range(1, 15):
            va, vb = pe_eval(a, k), pe_eval(b, k)
            assert abs(va - vb) <= 1e-9 * max(1.0, abs(va), abs(vb))


def test_commutativity_on_sequences():
    rng = np.random.default_rng(37)
    for _ in range(60):
        q1 = ShiftPolynomial(tuple(rng.uniform(-2, 2, rng.integers(1, 4))))
        q2 = ShiftPolynomial(tuple(rng.uniform(-2, 2, rng.integers(1, 4))))
        f = rng.uniform(-5, 5, 16)
        lhs = sp_apply_seq(q1, sp_apply_seq(q2, f))
        rhs = sp_apply_seq(sp_mul(q1, q2), f)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_exponential_eigenfunction_law():
    # Q(S) mu^k = Q(mu) mu^k on the valid window
    rng = np.random.default_rng(41)
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        q = ShiftPolynomial(tuple(rng.uniform(-1, 1, deg + 1)))
        mu = rng.uniform(-4, 4)
        ks = np.arange(1, 14)
        f = mu**ks.astype(float)
        got = sp_apply_seq(q, f)
        qmu = sp_eval(q, mu)
        for idx in range(len(got)):
            want = qmu * mu ** float(ks[idx])
            scale = sum(abs(c) * abs(mu) ** (ks[idx] + i) for i, c in enumerate(q.coeffs))
            assert abs(got[idx] - want) <= 1e-9 * max(1.0, scale)


def test_positivity_of_even_annihilators():
    rng = np.random.default_rng(43)
    bases_sets = [
        [1.0, -2.0],
        [complex(0.5, 1.0), complex(0.5, -1.0)],
        [3.0, complex(-1.0, 0.5), complex(-1.0, -0.5)],
    ]
    for bases in bases_sets:
        for d in (2, 4):
            q = annihilator(d, bases)
            for mu in rng.uniform(-4, 4, 200):
                val = sp_eval(q, complex(mu))
                scale = sum(
                    abs(c) * abs(mu) ** i for i, c in enumerate(q.coeffs)
                )
                assert abs(val.imag) <= 1e-12 * max(1.0, scale)
                assert val.real >= -1e-12 * max(1.0, scale)


def test_degree_preservation_off_base():
    # applying Ann_{D,L} to p(k) l^k with l outside L keeps the degree and
    # multiplies the leading coefficient by Ann(l)
    rng = np.random.default_rng(47)
    for _ in range(60):
        bases = sorted(rng.uniform(-3, 3, rng.integers(1, 3)))
        ell = rng.uniform(-4, 4)
        if min(abs(ell - b) for b in bases) < 0.3:
            continue
        d = int(rng.integers(1, 3))
        lead = rng.uniform(0.5, 2.0)
        deg = int(rng.integers(0, 3))
        coeffs = list(rng.uniform(-1, 1, deg))
        coeffs.append(lead)
        ann = annihilator(d, bases)
        out = sp_apply_polyexp(ann, Polyexponential.from_terms({ell: coeffs}))
        assert len(out.terms) == 1
        got = out.terms[0][1]
        assert len(got) == deg + 1
        want = sp_eval(ann, ell) * lead
        scale = sum(abs(c) * abs(ell) ** i for i, c in enumerate(ann.coeffs))
        assert abs(got[-1] - want) <= 1e-9 * max(1.0, scale)


def test_minimal_annihilating_degree():
    assert minimal_annihilating_degree(
        Polyexponential.from_terms({2.0: [1.0]}), [2.0]
    ) == 1
    assert minimal_annihilating_degree(
        Polyexponential.from_terms({2.0: [0, 0, 1.0]}), [2.0, 3.0]
    ) == 3
    assert minimal_annihilating_degree(Polyexponential.zero(), [1.0]) == 1
    assert minimal_annihilating_degree(Polyexponential.zero(), []) == 1


def test_minimal_annihilating_degree_counts_finite_support():
    p = Polyexponential.from_terms({2.0: [1.0]}, finite_support=[1.0, 2.0, 3.0])
    assert minimal_annihilating_degree(p, [2.0, 0.0]) == 3


def test_minimal_annihilating_degree_base_errors():
    p = Polyexponential.from_terms({2.0: [1.0]})
    with pytest.raises(BaseNotCoveredError):
        minimal_annihilating_degree(p, [3.0])
    p_fs = Polyexponential.from_terms({2.0: [1.0]}, finite_support=[1.0])
    with pytest.raises(BaseNotCoveredError):
        minimal_annihilating_degree(p_fs, [2.0])


def test_annihilator_kills_finite_support_via_zero_base():
    p = Polyexponential.from_terms({}, finite_support=[3.0, -1.0, 2.0])
    d = minimal_annihilating_degree(p, [0.0])
    assert d == 3
    assert sp_apply_polyexp(annihilator(d, [0.0]), p).is_zero


def test_trailing_zeros_trimmed():
    q = ShiftPolynomial((1.0, 2.0, 0.0, 0.0))
    assert q.coeffs == (1 + 0j, 2 + 0j)
    assert q.degree == 1


def test_zero_polynomial_application():
    q = ShiftPolynomial((0.0,))
    assert q.is_zero
    p = Polyexponential.from_terms({2.0: [1.0, 1.0]}, finite_support=[1.0])
    assert sp_apply_polyexp(q, p).is_zero


def test_annihilator_empty_product_is_identity():
    # D = 0 or an empty L: the plain Markov filter
    identity = ShiftPolynomial.identity()
    for q in (annihilator(0, [1.0]), annihilator(2, [])):
        assert (q.coeffs, q.roots) == (identity.coeffs, identity.roots)
    with pytest.raises(ValueError):
        annihilator(-1, [1.0])
    with pytest.raises(DuplicateBaseError):
        annihilator(0, [2.0, 2.0])


# --- properties over random inputs -------------------------------------------

# well-separated real and nonreal bases, |l| in [0.5, 2]
BASES = (0.5, -0.75, 1.25, -1.5, 2.0, 0.6 + 0.8j, 0.6 - 0.8j, 1.1j)
coeff = st.complex_numbers(max_magnitude=3)
nonzero_coeff = st.complex_numbers(min_magnitude=0.5, max_magnitude=3)
base_sets = st.lists(st.sampled_from(BASES), min_size=1, max_size=3, unique=True)


@st.composite
def polyexps(draw, bases=BASES, max_degree=2, finite_support=True):
    chosen = draw(st.lists(st.sampled_from(bases), max_size=3, unique=True))
    terms = {
        b: draw(st.lists(coeff, min_size=1, max_size=max_degree + 1))
        for b in chosen
    }
    fs = draw(st.lists(coeff, max_size=3)) if finite_support else []
    return Polyexponential.from_terms(terms, fs)


@st.composite
def shift_polys(draw):
    roots = draw(st.lists(st.sampled_from(BASES + (0.0, 3.0)), max_size=3))
    factored = ShiftPolynomial.from_roots(roots, lead=draw(nonzero_coeff))
    # half the time the factorization is forgotten, so both paths run
    return factored if draw(st.booleans()) else ShiftPolynomial(factored.coeffs)


def magnitude(p, k):
    """Sum of the absolute sizes of the terms of p(k): the computation scale."""
    total = sum(
        abs(c) * k**j * abs(b) ** k for b, cs in p.terms for j, c in enumerate(cs)
    )
    return total + (abs(p.finite_support[k - 1]) if k <= len(p.finite_support) else 0)


@settings(deadline=None)
@given(q=shift_polys(), p=polyexps())
def test_symbolic_application_matches_sequence_application(q, p):
    ks = range(1, 13 + q.degree)
    numeric = sp_apply_seq(q, [pe_eval(p, k) for k in ks])
    image = sp_apply_polyexp(q, p)
    for k, want in zip(ks, numeric):
        scale = sum(abs(c) * magnitude(p, k + i) for i, c in enumerate(q.coeffs))
        assert abs(pe_eval(image, k) - want) <= 1e-9 * max(1.0, scale)


@settings(deadline=None)
@given(bases=base_sets, d=st.integers(1, 3), data=st.data())
def test_annihilator_kills_every_polyexponential_below_degree(bases, d, data):
    p = data.draw(polyexps(tuple(bases), max_degree=d - 1, finite_support=False))
    ann = annihilator(d, bases)
    assert sp_apply_polyexp(ann, p).is_zero
    ks = range(1, 13 + ann.degree)
    residue = sp_apply_seq(ann, [pe_eval(p, k) for k in ks])
    for k, value in zip(ks, residue):
        scale = sum(abs(c) * magnitude(p, k + i) for i, c in enumerate(ann.coeffs))
        assert abs(value) <= 1e-9 * max(1.0, scale)


@settings(deadline=None)
@given(bases=base_sets, t=st.integers(1, 4), data=st.data())
def test_minimal_annihilating_degree_is_tight(bases, t, data):
    # the first base carries a term of degree exactly t - 1
    lead = data.draw(st.lists(coeff, min_size=t - 1, max_size=t - 1))
    terms = {bases[0]: lead + [data.draw(nonzero_coeff)]}
    for b in bases[1:]:
        terms[b] = data.draw(st.lists(coeff, min_size=1, max_size=t))
    p = Polyexponential.from_terms(terms)
    assert minimal_annihilating_degree(p, bases) == t
    if t > 1:
        assert not sp_apply_polyexp(annihilator(t - 1, bases), p).is_zero
