"""Polyexponential algebra: evaluation, combination, splitting, growth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidestep import (
    GrowthEstimate,
    Polyexponential,
    growth_rate,
    pe_combine,
    pe_ell_part,
    pe_eval,
    pe_split,
)
from sidestep.errors import DegreeCapError, EmptyTailError


def brute_eval(terms, fs, k):
    """Independent evaluation: plain sum over terms plus the 0-part."""
    total = 0j
    for base, coeffs in terms.items():
        total += sum(c * k**i for i, c in enumerate(coeffs)) * base**k
    if k <= len(fs):
        total += fs[k - 1]
    return total


def test_eval_pure_exponential():
    p = Polyexponential.from_terms({2.0: [1.0]})
    assert pe_eval(p, 3) == 8


def test_eval_polynomial_base_one():
    p = Polyexponential.from_terms({1.0: [0.0, 1.0]})
    assert pe_eval(p, 5) == 5


def test_eval_two_terms():
    # k * 2**k at k=2 plus 3 * (-1)**2: 2*4 + 3 = 11
    p = Polyexponential.from_terms({2.0: [0.0, 1.0], -1.0: [3.0]})
    assert pe_eval(p, 2) == pytest.approx(11.0)


def test_eval_matches_brute_force_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        terms = {
            complex(rng.uniform(-3, 3), rng.uniform(-1, 1)): list(
                rng.uniform(-2, 2, rng.integers(1, 4))
            )
            for _ in range(rng.integers(1, 4))
        }
        fs = list(rng.uniform(-1, 1, rng.integers(0, 4)))
        p = Polyexponential.from_terms(terms, fs)
        for k in (1, 2, 5, 9):
            want = brute_eval(terms, fs, k)
            assert pe_eval(p, k) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_eval_finite_support_convention():
    p = Polyexponential.from_terms({}, finite_support=[7.0, -1.0])
    assert pe_eval(p, 1) == 7
    assert pe_eval(p, 2) == -1
    assert pe_eval(p, 3) == 0


def test_eval_rejects_k_zero():
    with pytest.raises(ValueError):
        pe_eval(Polyexponential.zero(), 0)


def test_combine_cancellation_is_minimal():
    p = Polyexponential.from_terms({2.0: [1.0]})
    out = pe_combine(p, p, 1.0, -1.0)
    assert out.is_zero
    assert out.terms == ()


def test_combine_disjoint_bases():
    p1 = Polyexponential.from_terms({2.0: [1.0]})
    p2 = Polyexponential.from_terms({3.0: [1.0]})
    out = pe_combine(p1, p2, 1.0, 1.0)
    assert set(out.bases) == {2.0, 3.0}


def test_combine_coefficientwise():
    # k*2^k + (1-k)*2^k = 1*2^k
    p1 = Polyexponential.from_terms({2.0: [0.0, 1.0]})
    p2 = Polyexponential.from_terms({2.0: [1.0, -1.0]})
    out = pe_combine(p1, p2)
    assert out.terms == (((2 + 0j), ((1 + 0j),)),)


def test_combine_linearity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p1 = Polyexponential.from_terms(
            {rng.uniform(-2, 2): list(rng.uniform(-1, 1, 3))}
        )
        p2 = Polyexponential.from_terms(
            {rng.uniform(-2, 2): list(rng.uniform(-1, 1, 2))},
            finite_support=list(rng.uniform(-1, 1, 2)),
        )
        a, b = rng.uniform(-2, 2, 2)
        out = pe_combine(p1, p2, a, b)
        for k in range(1, 31):
            want = a * pe_eval(p1, k) + b * pe_eval(p2, k)
            got = pe_eval(out, k)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


coeff = st.complex_numbers(max_magnitude=3)
polyexps = st.builds(
    Polyexponential.from_terms,
    st.dictionaries(
        st.sampled_from((0.5, -0.75, 1.25, -1.5, 2.0, 0.6 + 0.8j, 0.6 - 0.8j)),
        st.lists(coeff, min_size=1, max_size=3),
        max_size=3,
    ),
    st.lists(coeff, max_size=3),
)


def magnitude(p, k):
    """Sum of the absolute sizes of the terms of p(k): the computation scale."""
    total = sum(
        abs(c) * k**j * abs(b) ** k for b, cs in p.terms for j, c in enumerate(cs)
    )
    return total + (abs(p.finite_support[k - 1]) if k <= len(p.finite_support) else 0)


@settings(deadline=None)
@given(p1=polyexps, p2=polyexps, a=coeff, b=coeff)
def test_combine_is_linear(p1, p2, a, b):
    out = pe_combine(p1, p2, a, b)
    for k in range(1, 16):
        want = a * pe_eval(p1, k) + b * pe_eval(p2, k)
        scale = abs(a) * magnitude(p1, k) + abs(b) * magnitude(p2, k)
        assert abs(pe_eval(out, k) - want) <= 1e-9 * max(1.0, scale)


def test_minimality_after_random_combines():
    rng = np.random.default_rng(17)
    acc = Polyexponential.zero()
    for _ in range(50):
        step = Polyexponential.from_terms(
            {round(rng.uniform(-2, 2), 1): list(rng.uniform(-1, 1, 2))}
        )
        acc = pe_combine(acc, step, 1.0, rng.choice([-1.0, 1.0]))
        for _, coeffs in acc.terms:
            assert any(c != 0 for c in coeffs)
            assert coeffs[-1] != 0


def test_ell_part_extraction():
    p = Polyexponential.from_terms({2.0: [0.0, 1.0], 3.0: [1.0]})
    part = pe_ell_part(p, 3.0)
    assert part.terms == (((3 + 0j), ((1 + 0j),)),)
    assert pe_ell_part(p, 5.0).is_zero


def test_ell_part_negative_base():
    p = Polyexponential.from_terms({2.0: [0.0, 1.0], -2.0: [0.0, 0.0, 1.0]})
    part = pe_ell_part(p, -2.0)
    assert part.bases == (-2 + 0j,)
    assert part.terms[0][1] == (0j, 0j, 1 + 0j)


def test_ell_part_zero_selects_finite_support():
    p = Polyexponential.from_terms({2.0: [1.0]}, finite_support=[4.0])
    part = pe_ell_part(p, 0.0)
    assert part.terms == ()
    assert part.finite_support == (4 + 0j,)


def test_split_threshold():
    p = Polyexponential.from_terms({2.0: [1.0], 0.5: [1.0]})
    big, small = pe_split(p, 1.0)
    assert big.bases == (2 + 0j,)
    assert small.bases == (0.5 + 0j,)


def test_split_everything_small():
    p = Polyexponential.from_terms({2.0: [1.0]})
    big, small = pe_split(p, 3.0)
    assert big.is_zero
    assert small.terms == p.terms


def test_split_partition_on_modulus():
    p = Polyexponential.from_terms({-1.5: [0.0, 1.0], 1.5: [1.0], 1.0: [1.0]})
    big, small = pe_split(p, 1.4)
    assert set(big.bases) == {-1.5 + 0j, 1.5 + 0j}
    assert small.bases == (1 + 0j,)


def test_split_soundness_randomized():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = Polyexponential.from_terms(
            {rng.uniform(-3, 3): list(rng.uniform(-1, 1, 2)) for _ in range(3)},
            finite_support=list(rng.uniform(-1, 1, 2)),
        )
        rho = rng.uniform(0, 3)
        big, small = pe_split(p, rho)
        for k in range(1, 31):
            want = pe_eval(p, k)
            got = pe_eval(big, k) + pe_eval(small, k)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_base_merging_tolerance():
    p = Polyexponential(
        ((2.0, (1.0,)), (2.0 + 1e-12, (1.0,))),
    )
    assert len(p.terms) == 1
    assert p.terms[0][1] == (2 + 0j,)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        Polyexponential.from_terms({2.0: [1.0] * 70})


def test_base_zero_term_folds_away():
    # p(k) * 0**k vanishes for k >= 1; the 0-part is the finite-support list
    p = Polyexponential.from_terms({0.0: [1.0, 2.0], 2.0: [1.0]})
    assert p.bases == (2 + 0j,)
    assert pe_eval(p, 1) == pytest.approx(2.0)


def test_split_at_zero_radius():
    p = Polyexponential.from_terms({2.0: [1.0]}, finite_support=[3.0])
    big, small = pe_split(p, 0.0)
    assert big.bases == (2 + 0j,)
    assert small.finite_support == (3 + 0j,)


def test_growth_rate_pure_exponential():
    seq = [2.0**k for k in range(1, 41)]
    est = growth_rate(seq, 0.5)
    assert est.rate == pytest.approx(2.0, abs=1e-9)
    assert est.window == range(21, 41)


def test_growth_rate_zero_sequence():
    est = growth_rate([0.0] * 10, 0.5)
    assert est.rate == 0.0


def test_growth_rate_polynomial_times_exponential():
    seq = [k * 3.0**k for k in range(1, 41)]
    est = growth_rate(seq, 0.25)
    assert 3.0 <= est.rate <= 3.0 * 40 ** (1 / 30)


def test_growth_rate_scaled_exponential_bound():
    # rate of c * rho**k deviates from rho by at most |c|**(1/k) at the
    # tail start
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.1, 10.0)
        seq = [c * rho**k for k in range(1, 41)]
        est = growth_rate(seq, 0.5)
        k0 = est.window.start
        factor = max(c, 1 / c) ** (1 / k0) * (1 + 1e-9)
        assert rho / factor <= est.rate <= rho * factor


def test_growth_rate_validation():
    with pytest.raises(ValueError):
        growth_rate([1.0, 2.0])
    with pytest.raises(EmptyTailError):
        growth_rate([1.0] * 8, 0.0)


def test_growth_estimate_rejects_negative_rate():
    with pytest.raises(ValueError):
        GrowthEstimate(-0.5)
