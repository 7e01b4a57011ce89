"""Spectrum store: one draw per sample, exact region counts, exact reuse."""

import json
from fractions import Fraction

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
    Spectra,
    SpectrumSample,
    draw_spectra,
    complete_graph,
    ein_eout,
    mc_expected_trace,
    sidestep_params,
    trace_horizon,
    verify_sidestep,
)
from sidestep import estimation, models
from sidestep.cli import main
from sidestep.errors import SidestepError, StreamMismatchError
from sidestep.estimation import region_expectations
from sidestep.spectral import mean_real_trace
from sidestep.models import sample_seed


class FixedDraws:
    """A model whose draw i is a given eigenvalue array."""

    def __init__(self, draws):
        self.draws = draws

    def sample(self, n, seed):
        return SpectrumSample(self.draws[seed.spawn_key[-1]])


def demo_model(n_grid=(100, 200, 400)):
    cfg = PlantedConfig(1.0, 4.0, n_grid, (0.5,), (Plant(2.0, 5.0, 1),))
    return PlantedModel(cfg)


# eigenvalues: exact zeros, points on region boundaries, values near 0
SPECIAL = [0.0, -0.0, 1e-12, -1e-12, 0.5, 1.0, 1.5, 2.0, -2.0, 2.0 + 1e-9, 1j, -1j]
reals = st.floats(-4, 4, allow_nan=False)
eigenvalue = st.one_of(
    st.sampled_from(SPECIAL),
    st.builds(complex, reals, st.one_of(st.just(0.0), reals)),
)
regions = st.builds(
    Region,
    center_radius=st.one_of(st.none(), st.just(0.0), st.floats(0, 3)),
    points=st.lists(
        st.one_of(st.sampled_from([0.0, 1e-12, -1e-9, 2.0, -2.0]), reals),
        max_size=3,
    ),
    point_radius=st.one_of(st.just(0.0), st.floats(0, 1)),
)


@st.composite
def draw_sets(draw, min_m=1):
    dim = draw(st.integers(1, 6))
    m = draw(st.integers(min_m, 5))
    rows = draw(
        st.lists(
            st.lists(eigenvalue, min_size=dim, max_size=dim), min_size=m, max_size=m
        )
    )
    return [np.array(r, dtype=complex) for r in rows]


@settings(deadline=None)
@given(draws=draw_sets(), region=regions)
def test_region_count_matches_full_arrays(draws, region):
    spectra = draw_spectra(FixedDraws(draws), len(draws[0]), len(draws), seed=0)
    want = sum(int(np.count_nonzero(region.member_mask(d))) for d in draws)
    assert spectra.region_count(region) == want


@settings(deadline=None)
@given(draws=draw_sets())
def test_store_keeps_nonzero_values_in_draw_order(draws):
    # a model without a block hook gets one entry per draw
    spectra = draw_spectra(FixedDraws(draws), len(draws[0]), len(draws), seed=0)
    assert spectra.draws.tolist() == list(range(len(draws)))
    for i, d in enumerate(draws):
        kept = spectra.values[spectra.offsets[i] : spectra.offsets[i + 1]]
        assert kept.tobytes() == d[d != 0].tobytes()
        sample = spectra.sample(i)
        assert sample.eigenvalues.tobytes() == kept.tobytes()
        assert sample.n == spectra.dim
        assert np.shares_memory(sample.eigenvalues, spectra.values) or not len(kept)


@settings(deadline=None)
@given(draws=draw_sets(), region=regions)
@example(draws=[np.array([0, 2.0, 0]), np.zeros(3)], region=Region(None, (0.0,), 0.0))
@example(draws=[np.array([0, 2.0, 0]), np.zeros(3)], region=Region(0.0))
@example(draws=[np.array([0, 2.0, 0]), np.zeros(3)], region=Region(None, (2.0,), 0.0))
def test_ein_eout_counts_implicit_zeros(draws, region):
    # a store sample keeps only its nonzero values; ein_eout must count its
    # zeros as if they were written out
    spectra = draw_spectra(FixedDraws(draws), len(draws[0]), len(draws), seed=0)
    m = len(draws)
    stored = [spectra.sample(i, weight=1.0 / m) for i in range(m)]
    padded = [SpectrumSample(_padded(s), weight=s.weight) for s in stored]
    got, want = ein_eout(stored, region), ein_eout(padded, region)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(deadline=None)
@given(draws=draw_sets(), seed=st.integers(0, 2**70))
def test_npz_round_trip_is_bitwise(tmp_path_factory, draws, seed):
    spectra = draw_spectra(FixedDraws(draws), 7, len(draws), seed)
    path = tmp_path_factory.mktemp("store") / "s.npz"
    spectra.save(path)
    back = Spectra.load(path)
    assert (back.n, back.m, back.seed) == (7, len(draws), seed)
    assert back.dim == spectra.dim
    assert back.values.dtype == np.complex128 and back.offsets.dtype == np.int64
    assert back.values.tobytes() == spectra.values.tobytes()
    assert back.offsets.tobytes() == spectra.offsets.tobytes()


def region_contains(region: Region, z: complex) -> bool:
    """Scalar reference for ``Region.member_mask``: closed balls throughout."""
    if region.center_radius is not None and abs(z) <= region.center_radius:
        return True
    return any(abs(z - p) <= region.point_radius for p in region.points)


@settings(deadline=None)
@given(eigs=st.lists(eigenvalue, max_size=8), region=regions)
def test_member_mask_agrees_with_region_contains(eigs, region):
    mask = region.member_mask(np.array(eigs, dtype=complex))
    assert mask.tolist() == [region_contains(region, z) for z in eigs]


def test_store_saves_identical_bytes(tmp_path):
    model = demo_model()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    draw_spectra(model, 100, 300, seed=4).save(a)
    draw_spectra(model, 100, 300, seed=4).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_spectra_rejects_malformed_stores():
    values, one = np.array([1.0, 2.0]), np.array([0])
    with pytest.raises(ValueError):
        Spectra(5, 2, 0, 5, values, np.array([0, 1]), [0, 0])  # offsets short
    with pytest.raises(ValueError):
        Spectra(5, 1, 0, 5, np.array([1.0, 0.0]), np.array([0, 2]), one)  # stored zero
    with pytest.raises(ValueError):
        Spectra(1, 1, 0, 1, values, np.array([0, 2]), one)  # above dim
    with pytest.raises(ValueError, match="entry indices"):
        Spectra(5, 2, 0, 5, values, np.array([0, 1, 2]), [0, 2])  # no entry 2
    with pytest.raises(ValueError, match="entry indices"):
        Spectra(5, 2, 0, 5, values, np.array([0, 1, 2]), [-1, 1])
    with pytest.raises(ValueError, match="entry 1 is no draw's"):
        Spectra(5, 2, 0, 5, values, np.array([0, 1, 2]), [0, 0])  # entry 1 unused
    with pytest.raises(ValueError):
        Spectra(5, 2, 0, 5, values, np.array([0, 1, 2]), [0])  # one index per draw
    with pytest.raises(ValueError):
        Spectra(5, 2, 0, 5, values, np.array([0, 1, 2]), [0.0, 1.0])  # not integers


def test_demo_store_keeps_each_distinct_draw_once(tmp_path):
    # one plant: a draw has it or not, so at most 2**1 entries for 8000 draws
    model = demo_model()
    n, m, seed = 100, 8000, 3
    spectra = draw_spectra(model, n, m, seed)
    assert len(spectra.counts) <= 2 and spectra.counts.sum() == m
    assert spectra.draws.dtype == np.uint8
    for i in range(m):
        values, counts, rows = model.draw_block(n, seed, i, 1)
        assert spectra.sample(i).eigenvalues.tobytes() == values.tobytes()
    path = tmp_path / "s.npz"
    spectra.save(path)
    back = Spectra.load(path)
    for name in ("values", "offsets", "draws", "counts"):
        got, want = getattr(back, name), getattr(spectra, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_first_draws_weigh_each_distinct_draw_by_its_share():
    spectra = draw_spectra(demo_model(), 100, 2000, seed=5)
    count, ks = 200, np.arange(1, 13)
    family = spectra.first_draws(count)
    per_draw = [spectra.sample(i, weight=1.0 / count) for i in range(count)]
    times = np.bincount(spectra.draws[:count], minlength=len(spectra.counts))
    assert [s.weight for s in family] == (times[times > 0] / count).tolist()
    for region in (Region(1.5), Region(None, (2.0,), 0.1), Region(0.0)):
        got, want = ein_eout(family, region), ein_eout(per_draw, region)
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    got, want = mean_real_trace(family, ks), mean_real_trace(per_draw, ks)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_lift_store_keeps_one_entry_per_draw():
    model = LiftModel(LiftConfig(complete_graph(4), (3,)))
    spectra = draw_spectra(model, 3, 5, seed=2)
    assert len(spectra.counts) == 5 and spectra.counts.tolist() == [1] * 5
    assert spectra.draws.tolist() == list(range(5))


def _power_sums(eigs, k_max):
    nz = eigs[eigs != 0]
    return np.real(np.sum(nz[None, :] ** np.arange(1, k_max + 1)[:, None], axis=1))


def _reference_trace_sums(model, n, k_max, m, seed):
    # the per-draw loop the store replaced
    total = np.zeros(k_max)
    for i in range(m):
        eigs = model.sample(n, sample_seed(seed, n, i)).eigenvalues
        total += _power_sums(eigs, k_max)
    return total / m


ZERO, SOME = [0j, 0j], [2.0 + 0j, -1j]


@settings(deadline=None)
@given(draws=draw_sets(min_m=2), k_max=st.integers(1, 8))
@example(draws=[np.array(ZERO)] * 3, k_max=4)  # every draw all zero
@example(draws=[np.array(SOME), np.array(ZERO)], k_max=4)  # trailing zero draw
@example(  # exact zeros mid-array, and an all-zero draw between others
    draws=[np.array([0, 1.5, 0]), np.zeros(3), np.array([-2, 0, 3j])], k_max=6
)
@example(  # power sums that cancel: both covariances are off by about 1.5e-11
    draws=[np.array([0, 0, 0, -2]), np.array([1e-12, -2, 0.0078125, 1e-9 + 4j])],
    k_max=7,
)
def test_trace_reduction_matches_per_draw_reference(draws, k_max):
    n, m = 100, len(draws)  # n only bounds k_max through the trace horizon
    spectra = draw_spectra(FixedDraws(draws), n, m, seed=0)
    table = mc_expected_trace(spectra, k_max)
    sums = np.array([_power_sums(d, k_max) for d in draws])
    means = sums.mean(axis=0)
    assert np.all(np.abs(table.means - means) <= 1e-12 * np.maximum(1, np.abs(means)))
    # the (k, l) covariance cancels terms as large as S_k * S_l, where S_k is
    # the mean sum(|z|**k), and both it and np.cov round at that scale
    size = np.array([_power_sums(np.abs(d), k_max) for d in draws]).mean(axis=0)
    cov = np.cov(sums.T).reshape(k_max, k_max) / m
    tol = 1e-12 * np.maximum(1, np.outer(size, size))
    assert np.all(np.abs(table.covariance - cov) <= tol)
    assert table.stderrs.tobytes() == np.sqrt(np.diag(table.covariance)).tobytes()


def _scatter_add_sums(spectra, k_max):
    """Power sums of every stored entry by ``np.add.at`` of complex powers."""
    owner = np.repeat(np.arange(len(spectra.counts)), np.diff(spectra.offsets))
    sums = np.zeros((len(spectra.counts), k_max), dtype=complex)
    np.add.at(sums, owner, spectra.values[:, None] ** np.arange(1, k_max + 1))
    return sums.real


def _fraction_moments(sums):
    """Means and covariance of the mean of per-draw power sums (rows), each
    the exact ``Fraction`` rounded once; or the first k whose power sum,
    mean or variance is not a finite float."""
    m, k_max = sums.shape
    means, cov = np.empty(k_max), np.empty((k_max, k_max))
    exact, mu = [], []
    for k in range(k_max):
        if not np.isfinite(sums[:, k]).all():
            return k + 1
        exact.append([Fraction(x) for x in sums[:, k].tolist()])
        mu.append(sum(exact[k]) / m)
        for l in range(k, -1, -1):
            scatter = sum((x - mu[k]) * (y - mu[l]) for x, y in zip(exact[k], exact[l]))
            try:
                means[k] = float(mu[k])
                cov[k, l] = cov[l, k] = float(scatter / ((m - 1) * m))
            except OverflowError:
                return k + 1
    return means, cov


def _assert_matches_reference(spectra, k_max):
    """Each entry's power sums are the scatter-add's bit for bit, and the
    table is the Fraction reference over the draws, or its error names the
    first k the reference cannot give."""
    want = _scatter_add_sums(spectra, k_max)
    got = estimation._draw_power_sums(
        spectra, 0, len(spectra.counts), np.arange(1, k_max + 1)
    )
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()
    reference = _fraction_moments(want[spectra.draws])
    if isinstance(reference, int):
        message = rf"n={spectra.n} is not finite at k={reference} "
        with pytest.raises(SidestepError, match=message):
            mc_expected_trace(spectra, k_max)
        return
    table = mc_expected_trace(spectra, k_max)
    assert table.means.tobytes() == reference[0].tobytes()
    assert table.covariance.tobytes() == reference[1].tobytes()
    assert table.stderrs.tobytes() == np.sqrt(np.diag(reference[1])).tobytes()


def _random_store(seed, n, m, kind, scale=1.0, max_size=3, repeats=1):
    """m draws of 0..max_size stored values each: real non-dyadic values,
    complex ones, or real ones but for one complex draw; each distinct
    draw is kept once and about m / repeats are distinct."""
    rng = np.random.default_rng(seed)
    entries = -(-m // repeats)
    sizes = rng.integers(0, max_size + 1, entries)
    values = scale * rng.uniform(-1, 1, sizes.sum())
    if kind == "complex":
        values = values + 1j * scale * rng.uniform(-1, 1, len(values))
    elif kind == "mixed" and len(values):
        values = values.astype(complex)
        values[len(values) // 2] += 0.25j
    values[values == 0] = scale / 3
    draws = np.concatenate([np.arange(entries), rng.integers(0, entries, m - entries)])
    return Spectra(n, m, seed, max_size, values, np.cumsum([0, *sizes]), draws)


def _spread(spectra):
    """The same draws, one entry per draw, in draw order."""
    parts = [spectra.sample(i).eigenvalues for i in range(spectra.m)]
    sizes = [len(p) for p in parts]
    values = np.concatenate([np.zeros(0, complex), *parts])
    return Spectra(
        spectra.n, spectra.m, spectra.seed, spectra.dim, values,
        np.cumsum([0, *sizes]), np.arange(spectra.m),
    )


def _table_bytes(spectra, k_max):
    table = mc_expected_trace(spectra, k_max)
    return table.means.tobytes(), table.covariance.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    m=st.integers(2, 30),
    repeats=st.sampled_from([1, 3, 10]),
    kind=st.sampled_from(["real", "complex", "mixed"]),
    scale=st.sampled_from([1e-3, 0.9, 2.7]),
    k_max=st.integers(1, 22),
    chunk=st.sampled_from([1, 2, 7, 2048]),
)
def test_trace_reduction_is_bitwise_the_scatter_add(
    seed, m, repeats, kind, scale, k_max, chunk
):
    # each entry's power sums are the scatter-add's bit for bit, and the
    # table is their Fraction reference; the power sums are blocked by
    # _CHUNK entries, and the table must not see it
    spectra = _random_store(seed, 100, m, kind, scale, repeats=repeats)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_CHUNK", chunk)
        _assert_matches_reference(spectra, k_max)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32),
    m=st.integers(2, 40),
    repeats=st.sampled_from([1, 4]),
    kind=st.sampled_from(["real", "complex", "mixed"]),
    k_max=st.integers(1, 12),
    data=st.data(),
)
def test_trace_table_depends_only_on_the_multiset_of_draws(
    seed, m, repeats, kind, k_max, data
):
    spectra = _random_store(seed, 100, m, kind, 1.3, repeats=repeats)
    want = _table_bytes(spectra, k_max)
    # one entry per draw instead of one per distinct draw
    assert _table_bytes(_spread(spectra), k_max) == want
    # the draws in another order
    order = data.draw(st.permutations(range(m)))
    moved = Spectra(
        spectra.n, m, spectra.seed, spectra.dim, spectra.values, spectra.offsets,
        spectra.draws[order],
    )
    assert _table_bytes(moved, k_max) == want


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_planted_table_does_not_depend_on_the_block(monkeypatch, block):
    # non-dyadic values: a sum in another grouping or order would differ in
    # its last bits
    plants = PLANTED_CASES["six-plants"][1]
    model = PlantedModel(PlantedConfig(1.0, 4.0, (20,), (0.3, -0.7), plants))
    want = _table_bytes(draw_spectra(model, 20, 300, seed=11), 10)
    monkeypatch.setattr(models, "_BLOCK", block)
    spectra = draw_spectra(model, 20, 300, seed=11)
    assert _table_bytes(spectra, 10) == want
    assert _table_bytes(_spread(spectra), 10) == want


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "kind, scale, k_max",
    [
        ("real", 1e200, 4),  # the variance overflows at k = 1: no table
        ("real", 1.05, 108),  # n = 30000 allows k >= 100, past numpy's chain
        ("complex", 1.05, 108),
    ],
)
def test_trace_reduction_bitwise_at_the_edges(kind, scale, k_max):
    n = 30000
    assert trace_horizon(n) >= k_max
    _assert_matches_reference(_random_store(7, n, 12, kind, scale, repeats=2), k_max)


@pytest.mark.parametrize("mutant", ["float pow", "chain through k=100"])
def test_bitwise_reference_sees_other_power_rules(monkeypatch, mutant):
    # the reference check above can tell numpy's complex power from libm
    # pow, and from the squaring chain at k = 100
    if mutant == "float pow":
        monkeypatch.setattr(
            estimation,
            "_real_powers",
            lambda values, ks: values.real ** ks[:, None],
        )
    else:
        monkeypatch.setattr(estimation, "_CHAIN_STOP", 101)
    with pytest.raises(AssertionError):
        _assert_matches_reference(_random_store(7, 30000, 12, "real", 1.05), 108)


@pytest.mark.parametrize("m", [2, 3, 300])
def test_overflowing_moments_raise_naming_n_and_k(m):
    # draws of 1e103 and of 3: every power sum through k = 2 is finite, but
    # the k = 2 variance, about 1e412 / 4, is past the largest float
    spectra = Spectra(40, m, 0, 1, [1e103, 3.0], [0, 1, 2], np.arange(m) % 2)
    with pytest.raises(SidestepError, match=r"n=40 is not finite at k=2 \(the stderr"):
        mc_expected_trace(spectra, 3)
    # every draw 1e200: no variance, and the k = 2 power sum overflows
    same = Spectra(40, m, 0, 1, [1e200], [0, 1], np.zeros(m, dtype=int))
    with pytest.raises(SidestepError, match=r"n=40 is not finite at k=2 \(a draw's"):
        mc_expected_trace(same, 3)


def _padded(s):
    """The sample's eigenvalues with its implicit zeros written out."""
    return np.concatenate([s.eigenvalues, np.zeros(s.n - len(s.eigenvalues))])


def _reference_region_expectations(model, n, m, seed, regions):
    counts = np.zeros(len(regions))
    for i in range(m):
        s = model.sample(n, sample_seed(seed, n, i))
        for j, region in enumerate(regions):
            counts[j] += int(np.count_nonzero(region.member_mask(_padded(s))))
    return [(float(e), float(s.n - e)) for e in counts / m]


def test_store_reductions_equal_per_draw_loops():
    model = demo_model()
    n, m, seed = 100, 1500, 21
    spectra = draw_spectra(model, n, m, seed)
    # the demo's values are dyadic, so every partial sum of the per-draw loop
    # is exact and its means are the exactly rounded ones
    means = mc_expected_trace(spectra, 12).means.tobytes()
    assert means == _reference_trace_sums(model, n, 12, m, seed).tobytes()
    regs = [
        Region(1.5, (2.0,), 0.1),
        Region(None, (2.0,), n**-0.3),
        Region(0.0),
        Region(None, (0.0,), 0.0),
    ]
    want = _reference_region_expectations(model, n, m, seed, regs)
    assert region_expectations(spectra, regs) == want


def test_verify_sidestep_makes_no_draw(monkeypatch):
    model = demo_model()
    stores = {n: draw_spectra(model, n, 4000, seed=7) for n in model.n_grid}

    def no_draw(*args):
        raise AssertionError("verify_sidestep drew a sample")

    monkeypatch.setattr(PlantedModel, "sample", no_draw)
    monkeypatch.setattr(PlantedModel, "draw_block", no_draw)
    report = verify_sidestep(stores, 1, sidestep_params(1.0, 4.0, 1, 0.5))
    assert len(report.detected) == 1  # so the window counts ran too
    assert report.passed and report.context["m"] == 4000


def test_verify_sidestep_reads_the_run_stores(tmp_path):
    # the stores `sidestep run` writes give the report that stores drawn
    # in memory with the same seed give
    model = demo_model()
    raw = {
        "schema": "sidestep-config/1",
        "seed": 7,
        "model": {"kind": "planted", "lambda0": 1.0, "lambda1": 4.0,
                  "fixed_part": [0.5],
                  "plants": [{"ell": 2.0, "amplitude": 5.0, "level": 1}]},
        "n_grid": list(model.n_grid),
        "m": 4000,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    loaded = {n: Spectra.load(out / f"spectra_n{n}.npz") for n in model.n_grid}
    drawn = {n: draw_spectra(model, n, 4000, seed=7) for n in model.n_grid}
    report = verify_sidestep(loaded, 1, params)
    assert len(report.detected) == 1
    assert report == verify_sidestep(drawn, 1, params)


def _reference_store(model, n, m, seed) -> Spectra:
    """The per-draw loop: one ``model.sample`` per draw, zeros dropped, and
    each distinct draw kept once, in order of its first draw."""
    entries: dict[bytes, int] = {}
    values, sizes, draws = [np.zeros(0, dtype=complex)], [0], []
    for i in range(m):
        eigs = model.sample(n, sample_seed(seed, n, i)).eigenvalues
        kept = eigs[eigs != 0]
        if kept.tobytes() not in entries:
            entries[kept.tobytes()] = len(entries)
            values.append(kept)
            sizes.append(len(kept))
        draws.append(entries[kept.tobytes()])
    return Spectra(n, m, seed, n, np.concatenate(values), np.cumsum(sizes), draws)


PLANTED_CASES = {
    "explicit-zero": ((0.5, 0.0, -0.25), (Plant(2.0, 5.0, 1),)),
    "no-plants": ((0.5, 0.0), ()),
    # six plants: two 4-word Philox output blocks per draw
    "six-plants": (
        (0.5,),
        (
            Plant(1.5, 2.0, 1),
            Plant(-2.0, 5.0, 1),
            Plant(3.0, 40.0, 2),
            Plant(-1.25, 10.0, 1),
            Plant(2.5, 19.0, 1),
            Plant(3.5, 100.0, 2),
        ),
    ),
}


@pytest.mark.parametrize("block", [None, 64, 7])
@pytest.mark.parametrize("case", sorted(PLANTED_CASES))
def test_planted_block_store_equals_per_draw_loop(tmp_path, monkeypatch, case, block):
    if block is not None:  # 300 draws: 4 full blocks of 64 and a partial one
        monkeypatch.setattr(models, "_BLOCK", block)
    fixed, plants = PLANTED_CASES[case]
    model = PlantedModel(PlantedConfig(1.0, 4.0, (20,), fixed, plants))
    n, m, seed = 20, 300, 2**40 + 3
    got, want = draw_spectra(model, n, m, seed), _reference_store(model, n, m, seed)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.draws.tobytes() == want.draws.tobytes()
    assert got.dim == want.dim == n
    got.save(tmp_path / "got.npz")
    want.save(tmp_path / "want.npz")
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()


def test_mutated_kernel_fails_the_block_check(monkeypatch, mutate_block_read):
    # advancing a block by its doubles (4s per draw) instead of its counter
    # blocks (s per draw) keeps the first block and breaks every later one
    def advanced_by_doubles(plant_rng, seed, p, size):
        n, start = seed.spawn_key
        return plant_rng(sample_seed(seed.entropy, n, 4 * start), p).random(size)

    mutate_block_read(advanced_by_doubles)
    monkeypatch.setattr(models, "_BLOCK", 64)
    model = PlantedModel(PlantedConfig(1.0, 4.0, (20,), (0.5,), (Plant(2.0, 10.0, 1),)))
    with pytest.raises(StreamMismatchError, match=r"n=20, i=64\b"):
        draw_spectra(model, 20, 300, seed=5)


def test_block_check_compares_the_last_draw_with_model_sample(monkeypatch):
    block = PlantedModel.draw_block

    def dropped_last(self, n, seed, start, count):
        values, counts, rows = block(self, n, seed, start, count)
        # the last draw becomes a new distinct draw, less its last eigenvalue
        end = int(np.sum(counts[: rows[-1] + 1]))
        kept = values[end - counts[rows[-1]] : end - 1]
        rows = rows.copy()
        rows[-1] = len(counts)
        return np.concatenate([values, kept]), [*counts, len(kept)], rows

    monkeypatch.setattr(PlantedModel, "draw_block", dropped_last)
    monkeypatch.setattr(models, "_BLOCK", 64)
    with pytest.raises(StreamMismatchError, match=r"model\.sample at n=20, i=63\b"):
        draw_spectra(demo_model((20,)), 20, 300, seed=5)
