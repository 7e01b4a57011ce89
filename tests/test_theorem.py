"""Parameter formulas and numerical certificates."""

import dataclasses
from math import ceil, log

import numpy as np
import pytest

from sidestep import (
    Plant,
    PlantedConfig,
    PlantedModel,
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
        # minimality up to roundoff when the ratio hits the boundary exactly
        assert p.widetilde_d_inequality(p.d_tilde - 2) < 1e-9 * (p.alpha_tilde + 1)


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
    cert = certify_real_trace_bound(model, tables, [2.0], 1, 2, levels)
    assert cert.d_sufficient
    assert cert.passed


def test_real_trace_bound_no_plants_growth_check():
    cfg = PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,))
    model = PlantedModel(cfg)
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(model, tables, [], 0, 2, levels)
    assert cert.passed


def test_real_trace_bound_insufficient_degree_fails():
    # without annihilation the level-1 term 5 * 2^k / n outgrows the
    # central envelope; the certificate must fail at large k
    model = demo_model()
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    levels = detect_levels(est, model.lambda0, model.lambda1)
    cert = certify_real_trace_bound(model, tables, [2.0], 0, 2, levels)
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
    cert = certify_real_trace_bound(model, tables, [], 2, 2, levels)
    assert len(cert.rows) > 0
    assert not cert.passed


def _envelope_per_row(model, tables, bases, d, r, delta=0.05):
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
                (model.lambda0 + delta) ** k * t.n,
                (model.lambda1 + delta) ** k * float(t.n) ** (-r),
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
    model = demo_model()
    k_max = int(rng.integers(12, 21))
    ks = np.arange(1, k_max + 1)
    tables = []
    for n in (400, 100, 200):
        means = rng.normal(size=k_max) * 2.0**ks + 0.5**ks
        stderrs = np.abs(rng.normal(size=k_max)) * (rng.random(k_max) < 0.7)
        tables.append(TraceTable(n, ks, means, stderrs, 100, np.diag(stderrs**2)))
    d, bases = [(0, []), (2, [2.0]), (2, [2.0, -1.5]), (4, [3.0])][seed % 4]
    cert = certify_real_trace_bound(model, tables, bases, d, 2, [])
    a, b, rows = _envelope_per_row(model, tables, bases, d, 2)
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


def test_verify_sidestep_planted():
    model = demo_model((100, 200, 400))
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    report = verify_sidestep(model, 1, params, model.n_grid, 4000, seed=7)
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
    report = verify_sidestep(model, 1, params, model.n_grid, 30_000, seed=11)
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
    report = verify_sidestep(model, 1, params, model.n_grid, 2000, seed=13)
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
        model, 1, params, cfg.n_grid, 6, seed=3, k_max=8, max_bases=1
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
