"""Parameter formulas and numerical certificates."""

import dataclasses
from math import ceil, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidestep import (
    LiftConfig,
    LiftModel,
    Plant,
    PlantedConfig,
    PlantedModel,
    Region,
    ShiftPolynomial,
    SpectrumSample,
    TraceTable,
    annihilator,
    certify_markov,
    certify_real_trace_bound,
    detect_levels,
    draw_spectra,
    exact_trace_table,
    exceptional_params,
    fit_expansion,
    mc_expected_trace,
    sidestep_params,
    sp_apply_seq,
    verify_exceptional_bound,
    verify_sidestep,
)
from sidestep.errors import ParameterError, PreconditionError
from sidestep.estimation import region_expectations
from sidestep.models import sample_seed
from sidestep.spectral import mean_real_trace
from sidestep.theorem import D_REF, BoundReport, Certificate


def demo_model(n_grid=(100, 200, 400, 800)):
    cfg = PlantedConfig(1.0, 4.0, n_grid, (0.5,), (Plant(2.0, 5.0, 1),))
    return PlantedModel(cfg)


def draw_stores(model, m, seed):
    return {n: draw_spectra(model, n, m, seed) for n in model.n_grid}


# --- parameter formulas ---------------------------------------------------


def test_exceptional_params_hand_computed_bound():
    # order bound: alpha + (alpha+1)(log L1 - log(L0+e)) / (log(L0+e) - log L0)
    p = exceptional_params(2.0, 8.0, 2.0, 1.0)
    assert p.r0_bound == pytest.approx(3.0, abs=1e-12)
    assert p.r0 >= 4


def test_exceptional_params_degenerate_limit():
    # with lambda1 = lambda0 + epsilon the bound reduces to alpha
    p = exceptional_params(1.0, 2.0, 1.0, 1e-9)
    assert p.r0_bound == pytest.approx(1e-9, abs=1e-15)
    assert ceil(p.r0_bound + 1e-15) == 1


def test_exceptional_params_kappa_margin():
    p = exceptional_params(1.0, 4.0, 1.0, 2.0)
    assert p.kappa == pytest.approx(1.05 * 3.0 / log(2.0), rel=1e-12)
    assert p.r0 == ceil(2.0 + p.kappa * log(2.0)) + 1


def test_exceptional_params_inequalities_have_positive_slack():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam0 = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.05, 2.0)
        lam1 = lam0 + rng.uniform(0.05, 5.0)
        alpha = rng.uniform(0.1, 4.0)
        p = exceptional_params(lam0, lam1, eps, alpha)
        first = -p.kappa * log(lam0 + eps) + 1 + p.kappa * log(lam0)
        second = -p.kappa * log(lam0 + eps) - p.r0 + p.kappa * log(lam1)
        assert first < -alpha
        assert second < -alpha
        assert p.r0 > p.r0_bound
        assert p.slack > 0
        assert p.theta0 > 0


def test_even_k_near_slope():
    p = exceptional_params(1.0, 4.0, 0.5, 2.0)
    for n in (100, 400, 1600):
        k = p.even_k_near(n)
        assert k % 2 == 0
        assert abs(k - p.kappa * log(n)) <= 1.0


def test_exceptional_params_validation():
    with pytest.raises(ParameterError):
        exceptional_params(0.0, 4.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        exceptional_params(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        exceptional_params(1.0, 4.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "epsilon, alpha, blame, match",
    [
        # 1 + 1e-17 == 1, so log((lambda0 + epsilon) / lambda0) is 0
        (1e-17, 2.0, "epsilon", "rounds to lambda0"),
        # from 2**52 on floats are 1 apart, so r0 = ceil(.) + 1 is not exact
        (0.5, 1e300, "alpha", "past exact floats"),
        (0.5, 1.7e308, "alpha", "past exact floats"),  # the ceiling's argument is inf
        (0.5, 2e17, "alpha", "past exact floats"),
        # here kappa ~ 1 / gap is the large factor
        (3e-16, 2.0, "epsilon", "past exact floats"),
    ],
)
def test_exceptional_params_name_what_rounding_defeats(epsilon, alpha, blame, match):
    with pytest.raises(ParameterError, match=match) as info:
        exceptional_params(1.0, 4.0, epsilon, alpha)
    assert info.value.argument == blame


def test_exceptional_params_exact_just_below_2_52():
    p = exceptional_params(1.0, 4.0, 0.5, 1e15)
    top = 1e15 + p.kappa * (log(4.0) - log(1.5))
    assert 2**51 < top < 2**52
    assert p.r0 == ceil(top) + 1
    assert p.slack > 0


positive_floats = st.floats(5e-324, 1.7e308)


@settings(deadline=None, max_examples=300)
@given(positive_floats, positive_floats, positive_floats, positive_floats)
# alpha and kappa * log(lambda1 / (lambda0 + epsilon)) cancel past 2**52
@example(5.586610959624514e16, 5.901378524675155e16, 5.901378524675155e16,
         5.901378524675155e16)
# (lambda0 + epsilon) / lambda0 overflows, so kappa * gap is 0 * inf
@example(7.147166821553729e-162, 1.5982241866138397e307, 1.5982241866138397e307,
         7.147166821553729e-162)
def test_exceptional_params_positive_slack_or_parameter_error(
    lambda0, lambda1, epsilon, alpha
):
    try:
        p = exceptional_params(lambda0, lambda1, epsilon, alpha)
    except ParameterError as exc:
        assert exc.argument
        return
    assert np.isfinite(p.slack) and p.slack > 0
    assert p.theta0 > 0


@settings(deadline=None, max_examples=300)
@given(positive_floats, positive_floats, st.integers(0, 64), positive_floats)
# lambda0 + 2 * epsilon / 3 rounds to lambda0 + epsilon / 3: kappa0 divides by 0
@example(6448241554509397.0, 1.2670061193948326e308, 16, 8.957526868177494e-213)
# the closed form's ceiling lands on 41, one step past the least degree 80
@example(0.20047735580877157, 193.09724057608094, 5, 189.23693011317667)
# the float slack moves in jumps of 32768: the closed form is 7242 steps short
@example(5.09107438922219e297, 5.0910743892328145e297, 49, 1.7096820786289999e282)
def test_sidestep_params_even_degree_or_parameter_error(lambda0, lambda1, j, epsilon):
    try:
        p = sidestep_params(lambda0, lambda1, j, epsilon)
    except ParameterError:
        return
    assert p.d_tilde % 2 == 0
    assert p.widetilde_d_inequality(p.d_tilde) >= 0
    assert p.widetilde_d_inequality(p.d_tilde - 2) < 0


def test_sidestep_params_kappa0_hand_computed():
    p = sidestep_params(1.0, 4.0, 0, 3.0)
    assert p.epsilon_tilde == pytest.approx(1.0)
    assert p.kappa0 == pytest.approx(2.0 / log(1.5), rel=1e-12)


def test_sidestep_params_kappa0_equality():
    # defining identity: k0*log(L0+2e~) - j - 2 = k0*log(L0+e~)
    for j in (0, 1, 3):
        p = sidestep_params(1.0, 4.0, j, 3.0)
        lhs = p.kappa0 * log(1.0 + 2 * p.epsilon_tilde) - j - 2
        rhs = p.kappa0 * log(1.0 + p.epsilon_tilde)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sidestep_params_kappa0_scales_with_level():
    p0 = sidestep_params(1.0, 4.0, 0, 3.0)
    p1 = sidestep_params(1.0, 4.0, 1, 3.0)
    assert p1.kappa0 == pytest.approx(p0.kappa0 * 3.0 / 2.0, rel=1e-12)


def test_sidestep_params_alpha_tilde():
    p = sidestep_params(1.0, 4.0, 0, 3.0)
    want = 1.0 + p.kappa0 * log(4.0) - p.kappa0 * log(3.0)
    assert p.alpha_tilde == pytest.approx(want, rel=1e-12)


def test_sidestep_params_d_tilde_minimal_even():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam0 = rng.uniform(0.3, 2.0)
        eps = rng.uniform(0.1, 2.0)
        lam1 = lam0 + eps + rng.uniform(0.0, 3.0)
        j = int(rng.integers(0, 4))
        p = sidestep_params(lam0, lam1, j, eps)
        assert p.d_tilde % 2 == 0
        assert p.widetilde_d_inequality(p.d_tilde) >= 0
        assert p.widetilde_d_inequality(p.d_tilde - 2) < 0


def test_sidestep_params_hypothesis_violation():
    with pytest.raises(ParameterError):
        sidestep_params(1.0, 1.5, 0, 1.0)


# --- Markov-type certificates ----------------------------------------------


def sample(eigs, weight=1.0):
    return SpectrumSample(np.asarray(eigs, dtype=complex), weight=weight)


def test_certify_markov_all_inside():
    s = sample([0.5] + [0.0] * 9)
    cert = certify_markov([s], 2, [2.0], 0.3, 0.5, 4, 10, lambda0=1.0)
    assert cert.lhs == 0.0
    assert cert.rhs >= 0.0
    assert cert.passed


def test_certify_markov_hand_example():
    # one eigenvalue at 1.8 outside B_1.5(0) and outside B_0.1(2):
    # rhs >= (1.8-2)^2 * 1.8^2 = 0.1296, lhs = n^0.. with n^-theta = 0.1
    n = 100
    theta = 0.5  # n^-theta = 0.1
    s = sample([1.8] + [0.0] * (n - 1))
    cert = certify_markov([s], 2, [2.0], theta, 0.5, 2, n, lambda0=1.0)
    want_rhs = (1.8 - 2.0) ** 2 * 1.8**2
    assert cert.rhs == pytest.approx(want_rhs, rel=1e-12)
    assert cert.lhs == pytest.approx(0.1**2 * 1.5**2 * 1.0, rel=1e-12)
    assert cert.passed


def test_certify_markov_empty_base_set_plain_markov():
    s = sample([1.8, 0.3, -0.2, 0.0])
    cert = certify_markov([s], 2, [], 0.3, 0.5, 4, 4, lambda0=1.0)
    # reduces to (lambda0+eps)^k * eout <= E[RealTrace(k)]
    want_rhs = 1.8**4 + 0.3**4 + 0.2**4
    assert cert.rhs == pytest.approx(want_rhs)
    assert cert.lhs == pytest.approx(1.5**4 * 1.0)
    assert cert.passed


def test_certify_markov_preconditions():
    s = sample([0.0])
    with pytest.raises(PreconditionError):
        certify_markov([s], 3, [2.0], 0.3, 0.5, 4, 1, lambda0=1.0)
    with pytest.raises(PreconditionError):
        certify_markov([s], 2, [2.0], 0.3, 0.5, 5, 1, lambda0=1.0)
    with pytest.raises(PreconditionError):
        certify_markov([s], 2, [1j], 0.3, 0.5, 4, 1, lambda0=1.0)
    # a conjugate pair would project onto one real point twice
    with pytest.raises(PreconditionError):
        certify_markov([s], 2, [1 + 1j, 1 - 1j], 0.3, 0.5, 4, 1, lambda0=1.0)


def random_model_samples(rng, count):
    """Weighted spectra obeying the eigenvalue-location model."""
    lam0 = rng.uniform(0.5, 2.0)
    lam1 = lam0 + rng.uniform(0.5, 6.0)
    n = int(rng.integers(4, 40))
    samples = []
    weights = rng.uniform(0.1, 1.0, count)
    weights /= weights.sum()
    for w in weights:
        eigs = []
        budget = n
        # conjugate pairs inside the central disk
        pairs = int(rng.integers(0, budget // 2 + 1))
        for _ in range(pairs):
            radius = rng.uniform(0, lam0)
            angle = rng.uniform(0.05, np.pi - 0.05)
            z = radius * np.exp(1j * angle)
            eigs += [z, np.conj(z)]
        budget -= 2 * pairs
        # real eigenvalues anywhere in [-lam1, lam1]
        eigs += list(rng.uniform(-lam1, lam1, budget))
        samples.append(sample(eigs, weight=float(w)))
    return samples, lam0, lam1, n


@st.composite
def location_model_cases(draw):
    """certify_markov arguments whose weighted spectra obey the location
    model: nonreal pairs inside the central disk, real values in
    [-lambda1, lambda1], zeros elsewhere."""
    unit = st.floats(0, 1)
    lam0 = draw(st.floats(0.5, 2.0))
    lam1 = lam0 + draw(st.floats(0.5, 6.0))
    n = draw(st.integers(4, 40))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    samples = []
    for w in weights:
        pairs = [
            lam0 * r * np.exp(1j * (0.05 + (np.pi - 0.1) * a))
            for r, a in draw(st.lists(st.tuples(unit, unit), max_size=n // 2))
        ]
        reals = draw(st.lists(st.floats(-lam1, lam1), max_size=n - 2 * len(pairs)))
        eigs = [*pairs, *np.conj(pairs), *reals]
        samples.append(sample(eigs + [0.0] * (n - len(eigs)), weight=w / sum(weights)))
    points = draw(st.lists(st.floats(-lam1, lam1), max_size=3))
    bases = [b for i, b in enumerate(points) if min(
        (abs(b - a) for a in points[:i]), default=1.0) > 1e-9]
    d = draw(st.sampled_from([0, 2, 4]))
    k = 2 * draw(st.integers(1, 20))
    theta, eps = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
    return samples, d, bases, theta, eps, k, n, lam0


@settings(deadline=None, max_examples=200)
@given(location_model_cases())
# an eigenvalue on the base: rhs is 0 less the rounding of 2.5**24-sized terms
@example(([sample([2.5, 0.0, 0.0, 0.0])], 4, [2.5], 1.0, 1.0, 24, 4, 1.0))
def test_certify_markov_passes_under_the_location_model(case):
    samples, d, bases, theta, eps, k, n, lam0 = case
    cert = certify_markov(samples, d, bases, theta, eps, k, n, lambda0=lam0)
    assert cert.passed, cert
    # real points and real power sums: the annihilated rhs has no imaginary part
    ann = annihilator(d, bases)
    mrt = mean_real_trace(samples, np.arange(k, k + ann.degree + 1))
    rhs = sp_apply_seq(ann, mrt.astype(complex))[0]
    assert rhs.imag == 0 and rhs.real == cert.rhs


def test_certify_markov_randomized_never_fails():
    rng = np.random.default_rng(11)
    for _ in range(400):
        samples, lam0, lam1, n = random_model_samples(rng, int(rng.integers(1, 5)))
        d = int(rng.choice([2, 4]))
        n_bases = int(rng.integers(0, 4))
        bases = list(rng.uniform(-lam1, lam1, n_bases))
        k = 2 * int(rng.integers(1, 21))
        theta = rng.uniform(0.05, 1.0)
        eps = rng.uniform(0.05, 1.0)
        cert = certify_markov(samples, d, bases, theta, eps, k, n, lambda0=lam0)
        assert cert.passed, cert


# --- real-trace growth envelope ---------------------------------------------


def test_real_trace_bound_oracle_annihilation():
    model = demo_model()
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(
        tables, [2.0], 1, 2, levels, model.lambda0, model.lambda1
    )
    assert cert.d_sufficient
    assert cert.passed


def test_real_trace_bound_no_plants_growth_check():
    cfg = PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,))
    model = PlantedModel(cfg)
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(
        tables, [], 0, 2, levels, model.lambda0, model.lambda1
    )
    assert cert.passed


def test_real_trace_bound_insufficient_degree_fails():
    # without annihilation the level-1 term 5 * 2^k / n outgrows the
    # central envelope; the certificate must fail at large k
    model = demo_model()
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(
        tables, [2.0], 0, 2, levels, model.lambda0, model.lambda1
    )
    assert not cert.d_sufficient
    assert not cert.passed
    assert cert.worst.k > 10


def test_real_trace_bound_isolation_profile_runs():
    # dropping a base from the annihilator is allowed; the slack profile
    # simply records the leftover term
    model = demo_model()
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(
        tables, [], 2, 2, levels, model.lambda0, model.lambda1
    )
    assert len(cert.rows) > 0
    assert not cert.passed


def _envelope_per_row(tables, bases, d, r, lambda0, lambda1, delta=0.05):
    """Reference: the envelope certificate's rows, built one row at a time."""
    ann = annihilator(d, bases) if d and bases else ShiftPolynomial.identity()
    qs = np.abs(np.array(ann.coeffs))
    rows = []
    for t in sorted(tables, key=lambda t: t.n):
        g = np.real(sp_apply_seq(ann, t.means.astype(complex)))
        for idx in range(len(g)):
            k = int(t.ks[idx])
            mag_in = sum(q * abs(t.means[idx + i]) for i, q in enumerate(qs) if q)
            se_in = sum(q * t.stderrs[idx + i] for i, q in enumerate(qs) if q)
            rows.append((
                t.n,
                k,
                float(abs(g[idx])),
                float(1e-12 * mag_in + 5.0 * se_in),
                (lambda0 + delta) ** k * t.n,
                (lambda1 + delta) ** k * float(t.n) ** (-r),
            ))
    k_values = sorted({row[1] for row in rows})
    fit = [row for row in rows if row[1] <= k_values[len(k_values) // 2]]
    a = max(max(v - f, 0.0) / uc for _, _, v, f, uc, _ in fit)
    b = max(max(v - a * uc - f, 0.0) / ur for _, _, v, f, uc, ur in fit)
    out = []
    for n, k, v, f, uc, ur in rows:
        envelope = a * uc + b * ur
        slack, scale = envelope + f - v, max(1.0, v, envelope)
        out.append((n, k, v, envelope + f, slack, slack >= -1e-9 * scale))
    return a, b, out


@pytest.mark.parametrize("seed", range(6))
def test_real_trace_bound_rows_match_per_row_reference(seed):
    # the certificate reduces whole columns at once; every row must keep
    # the bits of the one-row-at-a-time arithmetic
    rng = np.random.default_rng(seed)
    k_max = int(rng.integers(12, 21))
    ks = np.arange(1, k_max + 1)
    tables = []
    for n in (400, 100, 200):
        means = rng.normal(size=k_max) * 2.0**ks + 0.5**ks
        stderrs = np.abs(rng.normal(size=k_max)) * (rng.random(k_max) < 0.7)
        tables.append(TraceTable(n, ks, means, np.diag(stderrs**2)))
    d, bases = [(0, []), (2, [2.0]), (2, [2.0, -1.5]), (4, [3.0])][seed % 4]
    cert = certify_real_trace_bound(tables, bases, d, 2, [], 1.0, 4.0)
    a, b, rows = _envelope_per_row(tables, bases, d, 2, 1.0, 4.0)
    assert (cert.a_const, cert.b_const) == (a, b)
    assert [(c.n, c.k, c.lhs, c.rhs, c.slack, c.passed) for c in cert.rows] == rows
    assert {c.kind for c in cert.rows} == {"real-trace"}


# --- verifiers ---------------------------------------------------------------


def test_verify_exceptional_bound_planted_pass():
    model = demo_model((50, 100, 200))
    params = exceptional_params(1.0, 4.0, 0.5, 2.0)
    report = verify_exceptional_bound(
        model, draw_stores(model, 2000, seed=3), params, [2.0], params.theta0
    )
    assert report.passed
    assert all(r.lhs == 0.0 for r in report.rows)


def test_verify_exceptional_bound_missing_base_fails():
    model = demo_model((50, 100, 200))
    params = exceptional_params(1.0, 4.0, 0.5, 2.0)
    report = verify_exceptional_bound(
        model, draw_stores(model, 2000, seed=3), params, [], params.theta0
    )
    assert not report.passed
    assert 2.0 in report.flagged


def test_verify_exceptional_bound_large_epsilon_swallows_all():
    model = demo_model((50, 100))
    params = exceptional_params(1.0, 4.0, 3.5, 2.0)  # lambda0+eps > lambda1
    report = verify_exceptional_bound(
        model, draw_stores(model, 500, seed=5), params, [], params.theta0
    )
    assert report.passed
    assert all(r.lhs == 0.0 for r in report.rows)


def test_verify_exceptional_bound_theta_precondition():
    model = demo_model((50,))
    params = exceptional_params(1.0, 4.0, 0.5, 2.0)
    with pytest.raises(PreconditionError):
        verify_exceptional_bound(
            model, draw_stores(model, 100, seed=0), params, [2.0], params.theta0 * 3
        )


class HeadOutlier:
    """A model whose every draw at n = 10 has one eigenvalue at 3.0 and
    whose draws at other n have one at 0.5."""

    def sample(self, n, seed):
        return SpectrumSample(np.array([3.0 if n == 10 else 0.5]), n=n)


def test_verify_exceptional_bound_judges_the_tail():
    # the head row fails, the tail half passes: the group passes, and its
    # worst row is still the failing head row
    model = HeadOutlier()
    stores = {n: draw_spectra(model, n, 4, seed=0) for n in (10, 20, 40)}
    params = exceptional_params(1.0, 4.0, 0.5, 2.0)
    report = verify_exceptional_bound(model, stores, params, [], params.theta0)
    assert [(r.kind, r.n, r.k, r.passed) for r in report.rows] == [
        ("exceptional", 10, 0, False),
        ("exceptional", 20, 0, True),
        ("exceptional", 40, 0, True),
    ]
    assert report.passed
    assert report.worst == report.rows[0]
    assert (report.worst.lhs, report.worst.rhs) == (1.0, 10.0 ** -2.0)
    assert report.flagged == (3.0,)


def full_redraw_bound(model, stores, params, bases, theta):
    """Reference for ``verify_exceptional_bound`` whose flag pass re-draws
    every one of the first min(m, 2000) draws of a failing n; a nonreal
    location is keyed by its real part and |imaginary part|."""
    points = tuple(float(b) for b in bases)
    rows, flagged = [], {}
    for n in sorted(stores):
        spectra = stores[n]
        region = Region(params.lambda0 + params.epsilon, points, float(n) ** (-theta))
        (ein, eout), = region_expectations(spectra, [region])
        threshold = float(n) ** (-params.alpha)
        ok = eout <= threshold + 1e-12
        rows.append(Certificate("exceptional", int(n), 0, eout, threshold, ok))
        if not ok:
            for i in range(min(spectra.m, 2000)):
                eigs = model.sample(n, sample_seed(spectra.seed, n, i)).eigenvalues
                for z in eigs[~region.member_mask(eigs)]:
                    key = round(float(z.real), 2)
                    if round(abs(float(z.imag)), 2) != 0:
                        key = complex(key, round(abs(float(z.imag)), 2))
                    flagged[key] = flagged.get(key, 0) + 1
    passed = all(r.passed for r in rows[len(rows) // 2 :])
    worst = min([r for r in rows if not r.passed] or rows, key=lambda r: r.slack)
    flags = tuple(sorted(flagged, key=lambda x: -flagged[x]))
    return BoundReport(tuple(rows), worst, passed, flags)


class Recording:
    """A model wrapper that records (n, i) of every ``sample`` call."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def sample(self, n, seed):
        self.calls.append((n, seed.spawn_key[-1]))
        return self.model.sample(n, seed)


def check_flag_pass(model, stores, params, bases, theta):
    """The bound flags what a full re-draw flags, sampling exactly the
    draws i < min(m, 2000) of each failing n whose stored values leave the
    region, in draw order."""
    recording = Recording(model)
    report = verify_exceptional_bound(recording, stores, params, bases, theta)
    assert report == full_redraw_bound(model, stores, params, bases, theta)
    offending = []
    for row in report.rows:
        if row.passed:
            continue
        spectra = stores[row.n]
        region = Region(
            params.lambda0 + params.epsilon, tuple(bases), float(row.n) ** (-theta)
        )
        offending += [
            (row.n, i)
            for i in range(min(spectra.m, 2000))
            if not region.member_mask(spectra.sample(i).eigenvalues).all()
        ]
    assert recording.calls == offending
    return report


@st.composite
def planted_bound_cases(draw):
    fixed = draw(
        st.lists(st.sampled_from([0.0, -0.0, 0.3, -0.5, 1.0, -1.0]), max_size=3)
    )
    plants = draw(
        st.lists(
            st.builds(
                lambda sign, ell, amplitude: Plant(sign * ell, amplitude, 1),
                st.sampled_from([1.0, -1.0]),
                st.floats(1.05, 4.0),
                st.floats(0.5, 20.0),
            ),
            min_size=1,
            max_size=2,
        )
    )
    grid = draw(st.sampled_from([(20,), (20, 40)]))
    model = PlantedModel(PlantedConfig(1.0, 4.0, grid, tuple(fixed), tuple(plants)))
    m = draw(st.one_of(st.integers(1, 2600), st.integers(1990, 2600)))  # the cap
    seed = draw(st.integers(0, 2**32))
    bases = draw(st.lists(st.sampled_from([p.ell for p in plants]), unique=True))
    params = exceptional_params(
        1.0, 4.0, draw(st.floats(0.01, 1.5)), draw(st.sampled_from([1.0, 2.0, 3.0]))
    )
    theta = draw(st.floats(0.05, 1.0)) * params.theta0_for(D_REF, len(bases))
    return model, m, seed, bases, params, theta


# the demo's missing base past the 2000-draw cap, fixed part with a zero
CAPPED = (
    PlantedModel(PlantedConfig(1.0, 4.0, (20, 40), (0.0, -0.5), (Plant(2.0, 5.0, 1),))),
    2600, 7, [], exceptional_params(1.0, 4.0, 0.5, 2.0), 0.01,
)


@settings(deadline=None, max_examples=50)
@given(case=planted_bound_cases())
@example(case=CAPPED)
def test_flag_pass_redraws_only_offending_planted_draws(case):
    model, m, seed, bases, params, theta = case
    stores = {n: draw_spectra(model, n, m, seed) for n in model.n_grid}
    check_flag_pass(model, stores, params, bases, theta)


class ComplexOutliers:
    """Draw i holds explicit zeros, 0.5j inside the central disk, a complex
    outlier 2 + 1j when i % 6 == 1 and its conjugate when i % 6 == 4, and
    -3.0 when i % 4 == 0."""

    def sample(self, n, seed):
        i = seed.spawn_key[-1]
        outlier = [2.0 + 1.0j if i % 6 == 1 else 2.0 - 1.0j] * (i % 3 == 1)
        eigs = [0.0, 0.5j] + outlier + [0.0] + [-3.0] * (i % 4 == 0)
        return SpectrumSample(np.array(eigs, dtype=complex), n=n)


def test_flag_pass_on_per_draw_complex_store():
    # nine draws hold each outlier three times, the conjugate pair as one
    # location: the tie keeps the order in which the draws first show
    # them, -3.0 in draw 0
    model = ComplexOutliers()
    stores = {n: draw_spectra(model, n, 9, seed=1) for n in (10, 20)}
    params = exceptional_params(1.0, 4.0, 0.5, 2.0)
    report = check_flag_pass(model, stores, params, [], params.theta0)
    assert not report.passed
    assert report.flagged == (-3.0, 2 + 1j)


@pytest.mark.parametrize("seed", [2, 8])
def test_flag_pass_on_lift_store(seed):
    # K4 lifts of degree 2 and 3: a few of the four draws per n keep a new
    # eigenvalue outside the central disk
    k4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    cfg = LiftConfig(k4, (2, 3))
    model = LiftModel(cfg)
    stores = {n: draw_spectra(model, n, 4, seed) for n in cfg.n_grid}
    params = exceptional_params(cfg.lambda0, cfg.lambda1, 0.05, 3.0)
    report = check_flag_pass(model, stores, params, [], params.theta0)
    assert not report.passed and report.flagged


def test_verify_sidestep_planted():
    model = demo_model((100, 200, 400))
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    report = verify_sidestep(draw_stores(model, 4000, seed=7), 1, params)
    assert report.passed
    assert len(report.detected) == 1
    assert report.detected[0].ell == pytest.approx(2.0, abs=0.01)
    assert report.c_estimates[0].extrapolated == pytest.approx(5.0, rel=0.2)
    assert all(r["scaled_eout"] == 0.0 for r in report.rows)


def test_verify_sidestep_two_plants():
    cfg = PlantedConfig(
        1.0,
        4.0,
        (100, 200, 400, 800),
        (0.5,),
        (Plant(2.0, 5.0, 1), Plant(-3.0, 2.0, 1)),
    )
    model = PlantedModel(cfg)
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    report = verify_sidestep(draw_stores(model, 30_000, seed=11), 1, params)
    assert report.passed
    assert sorted(d.ell for d in report.detected) == pytest.approx(
        [-3.0, 2.0], abs=0.02
    )
    by_ell = {round(ce.ell): ce for ce in report.c_estimates}
    assert by_ell[2].extrapolated == pytest.approx(5.0, rel=0.25)
    assert by_ell[-3].extrapolated == pytest.approx(2.0, rel=0.35)


def test_verify_sidestep_no_plants_decay():
    cfg = PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,))
    model = PlantedModel(cfg)
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    report = verify_sidestep(draw_stores(model, 2000, seed=13), 1, params)
    assert report.passed
    assert report.detected == ()
    assert all(r["scaled_eout"] == 0.0 for r in report.rows)


def test_verify_sidestep_lift_smoke():
    # structural smoke on the lift model: the pipeline runs end to end and
    # produces a report; no assertion on outcome at this tiny scale
    from sidestep import LiftConfig, LiftModel, complete_graph

    cfg = LiftConfig(complete_graph(4), (12, 16, 20), hashimoto=True)
    model = LiftModel(cfg)
    params = sidestep_params(model.lambda0, model.lambda1, 1, 0.3)
    report = verify_sidestep(
        draw_stores(model, 6, seed=3), 1, params, k_max=8, max_bases=1
    )
    assert len(report.rows) == 3
    assert report.j == 1


def test_certificate_slack_tolerance():
    # a nonreal pair just outside B_1.5(0) puts 2 into eout, so lhs =
    # 1.5**2 * 2; two real eigenvalues with squares 2.25 * (1 - rel) give
    # rhs = 4.5 * (1 - rel), equal to lhs at rel = 0
    pair = 1.5 * (1 + 1e-9) * np.exp(0.5j * np.array([1, -1]))

    def cert(real):
        s = sample([*pair, real, real])
        return certify_markov([s], 0, [], 0.3, 0.5, 2, 4, lambda0=1.0)

    exact = cert(1.5)
    assert exact.lhs == exact.rhs == 4.5 and exact.slack == 0.0 and exact.passed
    assert cert(1.5 * np.sqrt(1 - 1e-13)).passed
    assert not cert(1.5 * np.sqrt(1 - 1e-8)).passed
    assert not cert(1.4).passed
