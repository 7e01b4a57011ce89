"""Trace tables, expansion fitting, base detection, weight estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidestep import (
    Plant,
    PlantedConfig,
    PlantedModel,
    TraceTable,
    detect_bases,
    draw_spectra,
    estimate_C_ell,
    exact_trace_table,
    find_smallest_j,
    fit_expansion,
    mc_expected_trace,
    planted_exact_trace,
)
from sidestep.cli import Experiment
from sidestep.errors import IllConditionedError, WindowTooShortError
from sidestep.estimation import NUM_EPS, ExpansionEstimate
from test_output_digests import CASES as DIGEST_CASES


def demo_model(n_grid=(100, 200, 400, 800)):
    cfg = PlantedConfig(1.0, 4.0, n_grid, (0.5,), (Plant(2.0, 5.0, 1),))
    return PlantedModel(cfg)


def draw_stores(model, m, seed):
    return {n: draw_spectra(model, n, m, seed) for n in model.n_grid}


def check_deterministic_trace(fixed, n, k_max, m):
    # every draw is the same spectrum, so the stderr is rounding noise
    model = PlantedModel(PlantedConfig(1.0, 4.0, (n,), fixed))
    t = mc_expected_trace(draw_spectra(model, n, m, seed=0), k_max)
    want = [planted_exact_trace(model.cfg, n, k) for k in range(1, k_max + 1)]
    assert np.allclose(t.means, want, rtol=1e-12, atol=1e-12)
    assert np.all(t.stderrs <= 1e-12 * np.abs(t.means))
    assert np.all(np.diag(t.covariance) >= 0)


def test_mc_deterministic_model_has_zero_stderr():
    check_deterministic_trace((0.5,), 50, 8, 50)


def test_mc_deterministic_covariance_does_not_cancel():
    # more draws than one reduction block, and odd-k sums that cancel
    check_deterministic_trace(tuple(np.linspace(-0.9, 0.9, 50)), 100, 20, 5000)


def test_mc_matches_exact_oracle_within_stderr():
    # convergence of the sample mean to the closed form, k = 1..10
    model = demo_model()
    t = mc_expected_trace(draw_spectra(model, 100, 100_000, seed=1), 10)
    for idx, k in enumerate(t.ks):
        want = planted_exact_trace(model.cfg, 100, int(k))
        assert abs(t.means[idx] - want) <= 4 * max(t.stderrs[idx], 1e-12)


def test_mc_determinism():
    model = demo_model()
    a = mc_expected_trace(draw_spectra(model, 100, 500, seed=9), 5)
    b = mc_expected_trace(draw_spectra(model, 100, 500, seed=9), 5)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_mc_validates_horizon():
    model = demo_model()
    with pytest.raises(ValueError):
        mc_expected_trace(draw_spectra(model, 100, 10, seed=0), 1000)
    with pytest.raises(ValueError):
        mc_expected_trace(draw_spectra(model, 100, 1, seed=0), 5)


def oracle_tables(model, k_max=20):
    return [exact_trace_table(model, n, k_max) for n in model.n_grid]


def test_fit_recovers_exact_oracle():
    # uniform relative error of each recovered coefficient sequence,
    # measured against the sequence's own scale over the window
    model = demo_model()
    est = fit_expansion(oracle_tables(model), r=2)
    ks = est.ks.astype(float)
    want0 = 0.5**ks
    want1 = 5.0 * 2.0**ks
    err0 = np.max(np.abs(est.level(0) - want0)) / np.max(np.abs(want0))
    err1 = np.max(np.abs(est.level(1) - want1)) / np.max(np.abs(want1))
    assert err0 <= 1e-8
    assert err1 <= 1e-8
    # pointwise recovery where the input values retain the information
    low = ks <= 12
    assert np.all(
        np.abs(est.level(0)[low] - want0[low]) <= 1e-8 * np.abs(want0[low])
    )


def test_fit_no_plants_gives_zero_level_one():
    model = PlantedModel(PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,)))
    est = fit_expansion(oracle_tables(model), r=2)
    assert np.max(np.abs(est.level(1))) <= 1e-9


def test_fit_underresolved_order_leaves_growing_residual():
    # fitting r=1 on level-1 data leaves residual ~ 5 * 2^k * spread(1/n)
    model = demo_model()
    est = fit_expansion(oracle_tables(model), r=1)
    resid = est.residuals
    ks = est.ks
    ratio = resid[-1] / resid[-5]
    assert ratio == pytest.approx(2.0 ** (ks[-1] - ks[-5]), rel=0.05)


def test_fit_reorder_invariance():
    model = demo_model()
    tables = oracle_tables(model)
    a = fit_expansion(tables, 2)
    b = fit_expansion(list(reversed(tables)), 2)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-9 * np.max(np.abs(a.coeffs))


def test_fit_requires_enough_dimensions():
    model = demo_model((100, 200))
    with pytest.raises(ValueError):
        fit_expansion(oracle_tables(model), r=2)


def reference_fit(tables, r):
    """Reference for ``fit_expansion``: the fit on the k-window shared by
    all tables, looked up row by row in each table."""
    tables = sorted(tables, key=lambda t: t.n)
    ns = [t.n for t in tables]
    k_lo = max(int(t.ks.min()) for t in tables)
    k_hi = min(int(t.ks.max()) for t in tables)
    ks = np.arange(k_lo, k_hi + 1)
    x = 1.0 / np.asarray(ns, dtype=float)
    design = np.vander(x, r, increasing=True)
    col_scale = np.linalg.norm(design, axis=0)
    coeffs = np.zeros((len(ks), r))
    residuals = np.zeros(len(ks))
    solve_maps = np.zeros((len(ks), r, len(ns)))
    worst_cond = 0.0
    offsets = [int(np.searchsorted(t.ks, k_lo)) for t in tables]
    for row, k in enumerate(ks):
        y = np.array([t.means[off + row] for t, off in zip(tables, offsets)])
        se = np.array([t.stderrs[off + row] for t, off in zip(tables, offsets)])
        w = np.where(se > 0, 1.0 / np.where(se > 0, se, 1.0) ** 2, 1.0)
        sw = np.sqrt(w)
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
        solve_maps[row] = (
            np.linalg.pinv(a / col_scale) * sw[None, :]
        ) / col_scale[:, None]
    covs = [np.zeros((len(ks), len(ks))) for _ in range(r)]
    for t_idx, (table, off) in enumerate(zip(tables, offsets)):
        block = table.covariance[off : off + len(ks), off : off + len(ks)]
        for i in range(r):
            gain = solve_maps[:, i, t_idx]
            covs[i] += np.outer(gain, gain) * block
    means = np.array(
        [[abs(t.means[off + row]) for t, off in zip(tables, offsets)]
         for row in range(len(ks))]
    )
    for i in range(r):
        num_scale = NUM_EPS * np.einsum(
            "kn,kn->k", np.abs(solve_maps[:, i, :]), means
        )
        covs[i] += np.outer(num_scale, num_scale)
    return ExpansionEstimate(r, ks, coeffs, residuals, worst_cond, tuple(covs))


def fit_bytes(fit, tables, r):
    """The fit's ks, coefficients, residuals, condition and level
    covariances as bytes, or the ill-conditioning message."""
    try:
        est = fit(tables, r)
    except IllConditionedError as exc:
        return str(exc)
    arrays = [est.ks.astype(np.int64), est.coeffs, est.residuals, *est.level_covs]
    return [a.tobytes() for a in arrays] + [np.float64(est.condition).tobytes()]


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.integers(2, 10**6), min_size=2, max_size=6, unique=True),
    st.integers(1, 12),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-9, 9), min_size=6, max_size=6),
)
def test_fit_matches_window_reference(ns, k_max, r, seed, scales):
    # each table's mean scale, noise rank (0: a zero covariance) and noise
    # scale vary by table; the bytes must be those of the reference
    r = min(r, len(ns) - 1)
    rng = np.random.default_rng(seed)
    ks = np.arange(1, k_max + 1)
    tables = []
    for n, scale in zip(ns, scales):
        means = rng.normal(size=k_max) * 10.0 ** rng.integers(-9, 10, size=k_max)
        means *= 10.0**scale
        factor = rng.normal(size=(k_max, int(rng.integers(0, k_max + 1))))
        cov = 10.0 ** rng.integers(-20, 4) * (factor @ factor.T)
        tables.append(TraceTable(n, ks, means, cov))
    order = rng.permutation(len(tables))
    tables = [tables[i] for i in order]
    assert fit_bytes(fit_expansion, tables, r) == fit_bytes(reference_fit, tables, r)


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_fit_matches_window_reference_on_digest_configs(case):
    exp = Experiment(DIGEST_CASES[case][0])
    tables = [
        mc_expected_trace(draw_spectra(exp.model, n, exp.m, exp.seed), exp.k_max)
        for n in exp.n_grid
    ]
    want = fit_bytes(reference_fit, tables, exp.fit_r)
    assert not isinstance(want, str)
    assert fit_bytes(fit_expansion, tables, exp.fit_r) == want


def test_fit_requires_one_k_window():
    model = demo_model()
    tables = oracle_tables(model)
    tables[1] = exact_trace_table(model, tables[1].n, 19)
    with pytest.raises(WindowTooShortError):
        fit_expansion(tables, 2)
    # the same length on other ks is another window too
    t = tables[1]
    tables[1] = TraceTable(t.n, t.ks + 1, t.means, t.covariance)
    with pytest.raises(WindowTooShortError):
        fit_expansion(tables, 2)


def test_trace_table_rejects_covariance_off_the_window():
    ks, means = np.arange(1, 4), np.ones(3)
    with pytest.raises(ValueError):
        TraceTable(10, ks, means, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TraceTable(10, ks, means, np.zeros(3))
    with pytest.raises(ValueError):
        TraceTable(10, ks, np.ones(4), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TraceTable(10, ks, means, np.diag([1.0, -1e-30, 1.0]))
    table = TraceTable(10, ks, means, np.diag([4.0, 0.0, 9.0]))
    assert table.stderrs.tolist() == [2.0, 0.0, 3.0]


def test_fit_ill_conditioned_error():
    # nearly coincident dimensions push the 1/n system past the cap
    tables = [
        TraceTable(n, np.arange(1, 6), np.ones(5), np.zeros((5, 5)))
        for n in (10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3)
    ]
    with pytest.raises(IllConditionedError) as info:
        fit_expansion(tables, r=3)
    assert info.value.condition > 1e12
    ns = (10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3)
    assert str(info.value).endswith(f"(k=1, n_grid={ns}, r=3)")


def test_detect_single_base_exact():
    ks = np.arange(4, 21)
    values = 5.0 * 2.0**ks
    out = detect_bases(values, ks, lambda0=1.0)
    assert len(out) == 1
    assert out[0].ell == pytest.approx(2.0, abs=1e-6)
    assert out[0].amplitude == pytest.approx(5.0, rel=1e-6)


def test_detect_zero_sequence_empty():
    ks = np.arange(4, 21)
    assert detect_bases(np.zeros(len(ks)), ks, 1.0) == []
    for cov in (np.zeros((len(ks), len(ks))), np.eye(len(ks))):
        assert detect_bases(np.zeros(len(ks)), ks, 1.0, noise_cov=cov) == []


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-3.5, -2.0, -1.2, 0.5, 1.5, 2.5, 3.0]),
            st.floats(-10, 10, allow_subnormal=False),
        ),
        min_size=0,
        max_size=3,
        unique_by=lambda t: t[0],
    )
)
def test_detect_zero_noise_cov_same_as_none(terms):
    # a zero covariance gives zero amplitude errors: no extra drop
    ks = np.arange(4, 21)
    values = sum((a * b ** ks.astype(float) for b, a in terms), np.zeros(len(ks)))
    zero = np.zeros((len(ks), len(ks)))
    assert detect_bases(values, ks, 1.0, 4.0, noise_cov=zero) == detect_bases(
        values, ks, 1.0, 4.0
    )


def test_detect_two_bases_with_noise():
    ks = np.arange(6, 31)
    rng = np.random.default_rng(3)
    noise = 0.01 * rng.uniform(-1, 1, len(ks))
    values = 3.0 * 2.0**ks + 4.0 * (-1.5) ** ks + noise
    out = detect_bases(values, ks, lambda0=1.2)
    assert sorted(abs(d.ell) for d in out) == pytest.approx(
        [1.5, 2.0], abs=0.01
    )
    by_ell = {round(d.ell): d for d in out}
    assert by_ell[2].amplitude == pytest.approx(3.0, rel=0.01)
    assert by_ell[-2].amplitude == pytest.approx(4.0, rel=0.01)
    # sorted by |ell| descending
    assert abs(out[0].ell) >= abs(out[1].ell)


def test_detect_scale_equivariance():
    ks = np.arange(4, 25)
    values = 2.0 * 1.7**ks + 0.5 * (-2.5) ** ks
    base = detect_bases(values, ks, 1.0)
    scaled = detect_bases(100.0 * values, ks, 1.0)
    assert len(base) == len(scaled) == 2
    for u, v in zip(base, scaled):
        assert v.ell == pytest.approx(u.ell, abs=1e-9)
        assert v.amplitude == pytest.approx(100.0 * u.amplitude, rel=1e-9)


def test_detect_window_too_short():
    with pytest.raises(WindowTooShortError):
        detect_bases(np.ones(5), np.arange(4, 9), 1.0, max_bases=4)


def test_detect_drops_bases_below_floor():
    ks = np.arange(4, 25)
    values = 5.0 * 2.0**ks + 1e-6 * 1.8**ks
    out = detect_bases(values, ks, 1.0)
    assert len(out) == 1
    assert out[0].ell == pytest.approx(2.0, abs=1e-4)


def test_detect_respects_lambda1_cap():
    ks = np.arange(4, 25)
    values = 5.0 * 6.0**ks
    assert detect_bases(values, ks, 1.0, lambda1=4.0) == []


def test_find_smallest_j_planted():
    model = demo_model()
    est = fit_expansion(oracle_tables(model), r=2)
    assert find_smallest_j(est, model.lambda0, model.lambda1) == 1


def test_find_smallest_j_no_plants():
    model = PlantedModel(PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,)))
    est = fit_expansion(oracle_tables(model), r=2)
    assert find_smallest_j(est, model.lambda0, model.lambda1) is None


def test_find_smallest_j_minimality_across_levels():
    # plants at levels 1 and 2: the smallest populated level wins
    cfg = PlantedConfig(
        1.0,
        4.0,
        (100, 200, 400, 800),
        (0.5,),
        (Plant(2.0, 5.0, 1), Plant(3.0, 2000.0, 2)),
    )
    model = PlantedModel(cfg)
    tables = [exact_trace_table(model, n, 20) for n in model.n_grid]
    est = fit_expansion(tables, 3)
    assert find_smallest_j(est, model.lambda0, model.lambda1) == 1


def test_find_smallest_j_level_zero_plant():
    # a level-0 polyexponential part shows up as j=0; emulate by planting
    # the base into c0 via a probability-1 plant
    cfg = PlantedConfig(1.0, 4.0, (100, 200, 400), (0.5,), (Plant(2.0, 1.0, 1),))
    model = PlantedModel(cfg)
    # exact tables where level-1 coefficient is 1 * 2^k
    est = fit_expansion(oracle_tables(model), r=2)
    assert find_smallest_j(est, model.lambda0, model.lambda1) == 1


def test_estimate_C_ell_bernoulli_oracle():
    model = demo_model((200, 400, 800))
    ce = estimate_C_ell(draw_stores(model, 4000, seed=5), 2.0, 1, 0.3)
    # per-n scaled count is Binomial(m, C/n) * n / m: stderr ~ sqrt(n C / m)
    for n, val in ce.per_n:
        sigma = np.sqrt(n * 5.0 / 4000)
        assert abs(val - 5.0) <= 4 * sigma
    assert ce.extrapolated == pytest.approx(5.0, rel=0.25)


def test_estimate_C_ell_absent_base_gives_zero():
    model = demo_model((100, 200))
    ce = estimate_C_ell(draw_stores(model, 2000, seed=6), 3.0, 1, 0.3)
    assert ce.extrapolated == 0.0


def test_estimate_C_ell_isolates_nearby_bases():
    # window radius below the spacing between bases counts one base only
    cfg = PlantedConfig(
        1.0, 4.0, (100, 200), (), (Plant(2.0, 5.0, 1), Plant(2.5, 8.0, 1))
    )
    model = PlantedModel(cfg)
    # theta = 0.5: radius n**-0.5 <= 0.1 < 0.5 spacing
    stores = draw_stores(model, 4000, seed=9)
    ce = estimate_C_ell(stores, 2.0, 1, 0.5)
    assert ce.extrapolated == pytest.approx(5.0, rel=0.25)
    ce_other = estimate_C_ell(stores, 2.5, 1, 0.5)
    assert ce_other.extrapolated == pytest.approx(8.0, rel=0.25)


def test_estimate_C_ell_monotone_in_radius():
    # enlarging the window radius never decreases the count
    from sidestep.estimation import region_expectations
    from sidestep import Region

    model = demo_model((100,))
    small = Region(None, (2.0,), 0.05)
    large = Region(None, (2.0,), 0.5)
    (e_small, _), (e_large, _) = region_expectations(
        draw_spectra(model, 100, 2000, seed=8), [small, large]
    )
    assert e_large >= e_small


def test_oracle_closure_small_scale():
    # end to end at reduced m: j exact, ell within 1e-2, C within 10%
    model = demo_model((100, 200, 400, 800))
    stores = draw_stores(model, 20_000, seed=2)
    tables = [mc_expected_trace(stores[n], 20) for n in model.n_grid]
    est = fit_expansion(tables, 2)
    j = find_smallest_j(est, model.lambda0, model.lambda1)
    assert j == 1
    est_d = est.restrict(4)
    bases = detect_bases(est_d.level(1), est_d.ks, model.lambda0, model.lambda1, level=1)
    assert len(bases) == 1
    assert bases[0].ell == pytest.approx(2.0, abs=1e-2)
    ce = estimate_C_ell(stores, bases[0].ell, 1, 0.3)
    assert abs(ce.extrapolated - 5.0) / 5.0 <= 0.10
