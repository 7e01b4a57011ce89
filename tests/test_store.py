"""Spectrum store: one draw per sample, exact region counts, exact reuse."""

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
    region_contains,
    sidestep_params,
    verify_sidestep,
)
from sidestep import models
from sidestep.errors import StreamMismatchError
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


def test_verify_sidestep_draws_each_sample_once(monkeypatch):
    calls, rows = [], []
    original, block = PlantedModel.sample, PlantedModel.draw_block

    def counted(self, n, seed):
        calls.append(n)
        return original(self, n, seed)

    def counted_block(self, n, seed, start, count):
        rows.append(count)
        return block(self, n, seed, start, count)

    monkeypatch.setattr(PlantedModel, "sample", counted)
    monkeypatch.setattr(PlantedModel, "draw_block", counted_block)
    model = demo_model()
    params = sidestep_params(1.0, 4.0, 1, 0.5)
    report = verify_sidestep(model, 1, params, model.n_grid, 4000, seed=7)
    assert len(report.detected) == 1  # so the window counts ran too
    # every draw once in a block, plus one reference draw per block
    assert sum(rows) == 4000 * len(model.n_grid)
    assert len(calls) == len(rows) == -(-4000 // models._BLOCK) * len(model.n_grid)


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
