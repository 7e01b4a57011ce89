"""Spectrum store: one draw per sample, exact region counts, exact reuse."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidestep import (
    Plant,
    PlantedConfig,
    PlantedModel,
    Region,
    Spectra,
    SpectrumSample,
    draw_spectra,
    ein_eout,
    mc_expected_trace,
    sidestep_params,
    verify_sidestep,
)
from sidestep import estimation, models
from sidestep.cli import main
from sidestep.errors import SidestepError, StreamMismatchError
from sidestep.estimation import region_expectations
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
    spectra = draw_spectra(FixedDraws(draws), len(draws[0]), len(draws), seed=0)
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
    with pytest.raises(ValueError):
        Spectra(5, 2, 0, 5, np.array([1.0, 2.0]), np.array([0, 1]))  # m + 1 offsets
    with pytest.raises(ValueError):
        Spectra(5, 1, 0, 5, np.array([1.0, 0.0]), np.array([0, 2]))  # stored zero
    with pytest.raises(ValueError):
        Spectra(1, 1, 0, 1, np.array([1.0, 2.0]), np.array([0, 2]))  # above dim


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
def test_trace_reduction_matches_per_draw_reference(draws, k_max):
    n, m = 100, len(draws)  # n only bounds k_max through the trace horizon
    spectra = draw_spectra(FixedDraws(draws), n, m, seed=0)
    table = mc_expected_trace(spectra, k_max)
    sums = np.array([_power_sums(d, k_max) for d in draws])
    cov = np.cov(sums.T).reshape(k_max, k_max) / m
    for got, want in ((table.means, sums.mean(axis=0)), (table.covariance, cov)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, np.abs(want)))
    assert table.stderrs.tobytes() == np.sqrt(np.diag(table.covariance)).tobytes()


def _scatter_add_sums(spectra, lo, hi, k_max):
    """Power sums of draws lo..hi-1 by ``np.add.at`` of complex powers."""
    offsets = spectra.offsets[lo : hi + 1]
    owner = np.repeat(np.arange(hi - lo), np.diff(offsets))
    sums = np.zeros((hi - lo, k_max), dtype=complex)
    powers = spectra.values[offsets[0] : offsets[-1], None] ** np.arange(1, k_max + 1)
    np.add.at(sums, owner, powers)
    return sums.real


def _scatter_add_trace(spectra, k_max):
    """The two-pass ``np.add.at`` reduction that ``mc_expected_trace`` must
    reproduce byte for byte: complex powers, 2048-draw blocks."""
    m = spectra.m
    blocks = [(lo, min(lo + 2048, m)) for lo in range(0, m, 2048)]
    total = np.zeros(k_max)
    for lo, hi in blocks:
        total += _scatter_add_sums(spectra, lo, hi, k_max).sum(axis=0)
    means = total / m
    scatter = np.zeros((k_max, k_max))
    for lo, hi in blocks:
        d = _scatter_add_sums(spectra, lo, hi, k_max) - means
        scatter += np.einsum("ik,il->kl", d, d)
    cov = scatter / (m - 1) / m
    return means, cov, np.sqrt(np.diag(cov))


def _random_store(seed, n, m, kind, scale=1.0, max_size=3):
    """m draws of 0..max_size stored values each: real non-dyadic values,
    complex ones, or blocks of either."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max_size + 1, m)
    values = scale * rng.uniform(-1, 1, sizes.sum())
    if kind == "complex":
        values = values + 1j * scale * rng.uniform(-1, 1, len(values))
    elif kind == "mixed":  # one complex value in the second block only
        values = values.astype(complex)
        start = int(sizes[:2048].sum())
        if start < len(values):
            values[start] += 0.25j
    values[values == 0] = scale / 3
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return Spectra(n, m, seed, max_size, values, offsets)


def _assert_matches_scatter_add(spectra, k_max):
    means, cov, stderrs = _scatter_add_trace(spectra, k_max)
    bad = ~(np.isfinite(means) & np.isfinite(stderrs))
    if bad.any():
        # no table: the error names the first k the reference cannot give,
        # and the per-draw power sums keep the reference's bits wherever it
        # is finite and are not finite wherever it is not
        k = int(np.argmax(bad)) + 1
        message = rf"n={spectra.n} is not finite at k={k} "
        with pytest.raises(SidestepError, match=message):
            mc_expected_trace(spectra, k_max)
        ks = np.arange(1, k_max + 1)
        for lo in range(0, spectra.m, 2048):
            hi = min(lo + 2048, spectra.m)
            got = estimation._draw_power_sums(spectra, lo, hi, ks)
            want = _scatter_add_sums(spectra, lo, hi, k_max)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert got[finite].tobytes() == want[finite].tobytes()
        return
    table = mc_expected_trace(spectra, k_max)
    assert table.means.tobytes() == means.tobytes()
    assert table.covariance.tobytes() == cov.tobytes()
    assert table.stderrs.tobytes() == stderrs.tobytes()


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32),
    m=st.one_of(st.integers(2, 40), st.sampled_from([2047, 2048, 2049, 4097])),
    kind=st.sampled_from(["real", "complex", "mixed"]),
    scale=st.sampled_from([1e-3, 0.9, 2.7]),
    k_max=st.integers(1, 22),
)
def test_trace_reduction_is_bitwise_the_scatter_add(seed, m, kind, scale, k_max):
    _assert_matches_scatter_add(_random_store(seed, 100, m, kind, scale), k_max)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "kind, scale, k_max",
    [
        ("real", 1e200, 4),  # the real chain overflows: no table
        ("real", 1.05, 108),  # n = 30000 allows k >= 100, past numpy's chain
        ("complex", 1.05, 108),
    ],
)
def test_trace_reduction_bitwise_at_the_edges(kind, scale, k_max):
    n = 30000
    assert models.trace_horizon(n) >= k_max
    _assert_matches_scatter_add(_random_store(7, n, 2049, kind, scale), k_max)


@pytest.mark.parametrize("mutant", ["float pow", "chain through k=100"])
def test_bitwise_reference_sees_other_power_rules(monkeypatch, mutant):
    # the bitwise checks above can tell numpy's complex power from libm
    # pow, and from the squaring chain at k = 100
    if mutant == "float pow":
        monkeypatch.setattr(
            estimation,
            "_real_powers",
            lambda values, ks: values.real ** ks[:, None],
        )
    else:
        monkeypatch.setattr(estimation, "_CHAIN_STOP", 101)
    spectra = _random_store(7, 30000, 2049, "real", 1.05)
    table = mc_expected_trace(spectra, 108)
    assert table.means.tobytes() != _scatter_add_trace(spectra, 108)[0].tobytes()


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
    # fewer than _CHUNK draws, so the chunked sum is the plain sequential one
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
    """The per-draw loop: one ``model.sample`` per draw, zeros dropped."""
    values, sizes = [np.zeros(0, dtype=complex)], [0]
    for i in range(m):
        eigs = model.sample(n, sample_seed(seed, n, i)).eigenvalues
        values.append(eigs[eigs != 0])
        sizes.append(len(values[-1]))
    return Spectra(n, m, seed, n, np.concatenate(values), np.cumsum(sizes))


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
    assert got.dim == want.dim == n
    got.save(tmp_path / "got.npz")
    want.save(tmp_path / "want.npz")
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()


def test_mutated_kernel_fails_the_block_check(monkeypatch):
    kernel = models.sample_uniforms

    def flipped(seed, n, start, count, p):
        u = kernel(seed, n, start, count, p)
        if start == 128:  # move the uniform across C/n = 1/2 in draw 128
            u[0, 0] = 0.75 if u[0, 0] < 0.5 else 0.25
        return u

    monkeypatch.setattr(models, "sample_uniforms", flipped)
    monkeypatch.setattr(models, "_BLOCK", 64)
    model = PlantedModel(PlantedConfig(1.0, 4.0, (20,), (0.5,), (Plant(2.0, 10.0, 1),)))
    with pytest.raises(StreamMismatchError, match=r"n=20, i=128\b"):
        draw_spectra(model, 20, 300, seed=5)
