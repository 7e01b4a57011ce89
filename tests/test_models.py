"""Planted and lift models: sampling, oracles, validation, determinism."""

import re

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
from sidestep.errors import ConfigError, ProbabilityError
from sidestep.models import planted_block, sample_seed


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
    message = r"^plants\[1\]\.amplitude: plant \(3.0, 50.0, 1\) has probability > 1 at n=10$"
    with pytest.raises(ProbabilityError, match=message):
        PlantedConfig(1.0, 4.0, (10, 100), (), plants)
    with pytest.raises(ConfigError, match="^n_grid: n=2 too small for the configured spectrum$"):
        PlantedConfig(1.0, 4.0, (2, 4), (0.1, 0.2), (Plant(2.0, 1.0, 1),))


# a valid plant, (ell, amplitude, level), ahead of the faulty one, whose
# leaf then carries index 1
VALID = (2.0, 5.0, 1)


@pytest.mark.parametrize(
    ("args", "plants", "leaf", "message"),
    [
        pytest.param((5.0, 4.0, (10,)), (), "lambda0", "need 0 < lambda0 < lambda1",
                     id="lambda0"),
        pytest.param((1.0, 4.0, (10,), (0.5, 3.0)), (), "fixed_part[1]",
                     "fixed eigenvalue 3.0 outside [-lambda0, lambda0]", id="fixed_part"),
        pytest.param((1.0, 4.0, (10,), ()), (VALID, (3.0, 0.0, 1)), "plants[1].amplitude",
                     "must be positive", id="amplitude"),
        pytest.param((1.0, 4.0, (10,), ()), (VALID, (3.0, 5.0, 0)), "plants[1].level",
                     "must be >= 1", id="level"),
        pytest.param((1.0, 4.0, (10,), ()), (VALID, (-0.5, 5.0, 1)), "plants[1].ell",
                     "plant base -0.5 outside (lambda0, lambda1]", id="ell"),
        # 10**400 is an integer no float holds: the rule runs before any power
        pytest.param((1.0, 4.0, (10, 1600), ()), ((2.0, 5.0, 400),), "plants[0].level",
                     "n ** level = 1600 ** 400 overflows a float at the largest n",
                     id="level-overflow"),
        pytest.param((1.0, 4.0, ()), (), "n_grid", "must be a nonempty list", id="grid-empty"),
        pytest.param((1.0, 4.0, (10, 10)), (), "n_grid", "must be strictly increasing",
                     id="grid-order"),
        pytest.param((1.0, 4.0, (0, 10)), (), "n_grid", "entries must be >= 1",
                     id="grid-zero"),
    ],
)
def test_planted_config_rules_name_their_leaf(args, plants, leaf, message):
    with pytest.raises(ConfigError) as caught:
        PlantedConfig(*args, plants=tuple(Plant(*p) for p in plants))
    assert (caught.value.field, caught.value.message) == (leaf, message)


@pytest.mark.parametrize(
    ("base", "hashimoto", "n_grid", "leaf", "message"),
    [
        pytest.param(2, True, (2,), "hashimoto", "directed-edge mapping needs degree >= 3",
                     id="K2-hashimoto"),
        pytest.param(3, True, (2,), "hashimoto", "directed-edge mapping needs degree >= 3",
                     id="K3-hashimoto"),
        # without the mapping, degree 1 reads lambda0 = 0 and degree 2 lambda0 = lambda1
        pytest.param(2, False, (2,), "base_adjacency", "need 0 < lambda0 < lambda1", id="K2"),
        pytest.param(3, False, (2,), "base_adjacency", "need 0 < lambda0 < lambda1", id="K3"),
        pytest.param(4, True, (0, 3), "n_grid", "entries must be >= 1", id="grid-zero"),
        pytest.param(4, True, (3, 2), "n_grid", "must be strictly increasing", id="grid-order"),
    ],
)
def test_lift_config_rules_name_their_leaf(base, hashimoto, n_grid, leaf, message):
    with pytest.raises(ConfigError) as caught:
        LiftConfig(complete_graph(base), n_grid, hashimoto=hashimoto)
    assert (caught.value.field, caught.value.message) == (leaf, message)


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
    with pytest.raises(ValueError, match="^base_adjacency: base adjacency must be square$"):
        LiftConfig(np.zeros(3, dtype=int), (2,))  # rows that are no sequences
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


# 1.9, "1" and True: a cast to int read each as 1 and built K4
@pytest.mark.parametrize(
    "entry",
    [1.9, "1", True, 1.0, np.float64(1.0), np.True_],
    ids=["1.9", "str", "bool", "1.0", "float64", "numpy-bool"],
)
def test_lift_config_entries_must_be_integers(entry):
    k4 = complete_graph(4).tolist()
    k4[0][1] = entry
    message = f"base_adjacency: base adjacency entries must be integers, got {entry!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        LiftConfig(k4, (2,))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_lift_config_reads_numpy_integer_entries(dtype):
    rows = [[dtype(x) for x in row] for row in complete_graph(4).tolist()]
    for adjacency in (rows, complete_graph(4).astype(dtype)):
        cfg = LiftConfig(adjacency, (2,))
        assert cfg.degree == 3 and cfg.base_adjacency == tuple(map(tuple, complete_graph(4)))
        assert {type(x) for row in cfg.base_adjacency for x in row} == {int}


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


def reference_lift_params(base_adjacency, hashimoto):
    """The numpy graph rules and radii LiftConfig had before they moved into
    ``sidestep.config`` (``models._validate_regular`` and
    ``LiftConfig.__post_init__``): (degree, lambda0, lambda1), or the
    ValueError a rule raises."""
    adj = np.asarray(base_adjacency, dtype=int)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("base adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("base adjacency must be symmetric")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("base adjacency must be 0/1")
    if np.any(np.diag(adj) != 0):
        raise ValueError("base graph must have no self loops")
    degrees = adj.sum(axis=1)
    d = int(degrees[0])
    if not np.all(degrees == d):
        raise ValueError("base graph must be regular")
    seen = np.arange(len(adj)) == 0  # grow the set reachable from vertex 0
    for _ in range(len(adj)):
        seen |= adj[seen].any(axis=0)
    if not seen.all():
        raise ValueError("base graph must be connected")
    if d < 3 and hashimoto:
        raise ValueError("directed-edge mapping needs degree >= 3")
    with np.errstate(invalid="ignore"):  # d = 0: the warning went to stderr
        root = float(np.sqrt(d - 1))
    lambda0 = root if hashimoto else 2.0 * root
    lambda1 = float(d - 1 if hashimoto else d)
    if not 0 < lambda0 < lambda1:
        raise ValueError("need 0 < lambda0 < lambda1")
    return d, lambda0, lambda1


ENTRY = st.integers(0, 2)


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix on 1..6 vertices, of 0/1 or of {0, 1, 2}, with a
    zero diagonal or not."""
    v, top, loops = draw(st.integers(1, 6)), draw(st.integers(1, 2)), draw(st.booleans())
    upper = draw(st.lists(st.integers(0, top), min_size=v * v, max_size=v * v))
    return [[(u != w or loops) * upper[min(u, w) * v + max(u, w)] for w in range(v)]
            for u in range(v)]


@st.composite
def circulant_graphs(draw):
    """Vertex i joined to i ± s for each offset s: regular, connected or not."""
    v = draw(st.integers(1, 9))
    offsets = draw(st.sets(st.integers(1, max(1, v // 2))))
    return [[int(min((w - u) % v, (u - w) % v) in offsets) for w in range(v)]
            for u in range(v)]


@settings(deadline=None, max_examples=300)
@given(
    adjacency=st.one_of(
        st.lists(st.lists(ENTRY, max_size=5), max_size=5),  # any shape, ragged too
        st.integers(1, 6).flatmap(  # square
            lambda v: st.lists(st.lists(ENTRY, min_size=v, max_size=v), min_size=v,
                               max_size=v)
        ),
        symmetric_matrices(),
        circulant_graphs(),
    ),
    hashimoto=st.booleans(),
)
@example(adjacency=[[0, 1], [1]], hashimoto=True)
@example(adjacency=[[0]], hashimoto=False)
@example(adjacency=[[1]], hashimoto=False)
@example(adjacency=[[2]], hashimoto=True)
@example(adjacency=[], hashimoto=True)
@example(adjacency=[[]], hashimoto=True)
@example(adjacency=complete_graph(4).tolist(), hashimoto=True)
@example(adjacency=complete_graph(6).tolist(), hashimoto=False)
def test_lift_config_keeps_the_numpy_rules(adjacency, hashimoto):
    # the stdlib rules raise what the numpy ones did, a graph rule on the
    # base_adjacency field, or give bit-equal radii; a ragged matrix, which
    # numpy could not read, is not square
    ragged = len({len(row) for row in adjacency}) > 1
    inputs = [adjacency] if ragged else [adjacency, np.array(adjacency, dtype=int)]
    try:
        want = reference_lift_params(adjacency, hashimoto)
    except ValueError as exc:
        rule = "base adjacency must be square" if ragged else str(exc)
        leaf = "hashimoto" if rule == "directed-edge mapping needs degree >= 3" else "base_adjacency"
        want = f"{leaf}: {rule}"
    for given_adjacency in inputs:
        try:
            cfg = LiftConfig(given_adjacency, (2,), hashimoto=hashimoto)
        except ConfigError as exc:
            assert str(exc) == want
            continue
        got = (cfg.degree, cfg.lambda0.hex(), cfg.lambda1.hex())
        assert got == (want[0], want[1].hex(), want[2].hex())
        assert cfg.base_adjacency == tuple(map(tuple, adjacency))
        assert {type(x) for row in cfg.base_adjacency for x in row} == {int}


U32 = 2**32


def contract_uniforms(seed, n, start, count, p):
    """Plant uniforms of draws start..start+count-1 as README's planted
    stream contract words them, rows in draw order."""
    s = -(-p // 4)
    bg = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(n,)))
    return np.random.Generator(bg.advance(start * s)).random((count, 4 * s))[:, :p]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.one_of(st.sampled_from([2**64, 2**128 + 7]), st.integers(2**64, 2**160)),
    n=st.one_of(st.just(U32 + 1), st.integers(10, 10**6)),
    start=st.one_of(st.integers(0, 20), st.integers(U32, 2**48)),
    count=st.integers(1, 9),
    p=st.integers(0, 9),  # crosses the 4-word Philox output block
    q=st.floats(0.05, 0.95),
)
@example(seed=2**130 + 1, n=U32 + 1, start=U32 + 5, count=9, p=9, q=0.5)
@example(seed=2**64, n=U32 + 1, start=U32, count=3, p=0, q=0.5)
def test_block_rows_equal_per_draw_samples(seed, n, start, count, p, q):
    # level-1 plants with probability q each, so most rows differ
    plants = tuple(Plant(1.5 + 0.25 * j, q * n, 1) for j in range(p))
    cfg = PlantedConfig(1.0, 4.0, (n,), (0.5,), plants)
    values, counts, rows = planted_block(cfg, n, seed, start, count)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    want = contract_uniforms(seed, n, start, count, p)
    # each distinct draw once, numbered in order of its first draw
    firsts = [int(np.argmax(rows == e)) for e in range(len(counts))]
    assert firsts == sorted(firsts) and set(rows.tolist()) == set(range(len(counts)))
    entries = {values[a:b].tobytes() for a, b in zip(offsets[:-1], offsets[1:])}
    assert len(entries) == len(counts) <= 2**p
    for r in range(count):
        draw = sample_seed(seed, n, start + r)
        eigs = planted_sample(cfg, n, draw).eigenvalues
        kept = values[offsets[rows[r]] : offsets[rows[r] + 1]]
        assert kept.tobytes() == eigs[eigs != 0].tobytes()
        assert models._plant_rng(draw, p).random(p).tobytes() == want[r].tobytes()
