"""Regions, spectrum samples, eigensolvers, the directed-edge map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidestep import (
    Region,
    SpectrumSample,
    ein_eout,
    hashimoto_from_adjacency,
    sym_eigs,
)
from sidestep.errors import (
    DimensionMismatchError,
    NonSymmetricError,
    SpectralRangeError,
)


def contains(region, z):
    return bool(region.member_mask(np.array([z], dtype=complex))[0])


def sample(eigs, weight=1.0):
    return SpectrumSample(np.asarray(eigs, dtype=complex), weight=weight)


def test_region_point_ball():
    r = Region(1.5, (2.0,), 0.1)
    assert contains(r, 2.05)
    assert not contains(r, 1.8)


def test_region_boundary_closed():
    assert contains(Region(1.5), 1.5)
    assert contains(Region(1.0, (2.0,), 0.125), 2.125)


def test_region_no_central_disk():
    r = Region(None, (2.0,), 0.1)
    assert not contains(r, 0.0)
    assert contains(r, 1.95)


def test_region_monotone_in_radii():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pts = tuple(rng.uniform(-3, 3, rng.integers(0, 3)))
        small = Region(rng.uniform(0, 2), pts, rng.uniform(0, 0.5))
        big = Region(small.center_radius + 0.3, pts, small.point_radius + 0.2)
        z = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
        if contains(small, z):
            assert contains(big, z)


def test_ein_eout_single_sample():
    ein, eout = ein_eout([sample([2.0, 0.5, -0.5])], Region(1.0))
    assert (ein, eout) == (2.0, 1.0)


def test_ein_eout_total_region():
    s = sample([2.0, 0.5, -0.5])
    ein, eout = ein_eout([s], Region(10.0))
    assert (ein, eout) == (3.0, 0.0)


def test_ein_eout_weighted_average():
    s1 = sample([2.0, 0.0, 0.0], weight=0.5)
    s2 = sample([0.0, 0.0, 0.0], weight=0.5)
    ein, eout = ein_eout([s1, s2], Region(1.0))
    assert ein == pytest.approx(2.5)
    assert eout == pytest.approx(0.5)


def test_ein_eout_identity_randomized():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 12))
        samples = [
            sample(rng.uniform(-3, 3, n), weight=1.0 / m) for _ in range(m)
        ]
        region = Region(rng.uniform(0, 2), tuple(rng.uniform(-3, 3, 2)), rng.uniform(0, 1))
        ein, eout = ein_eout(samples, region)
        assert ein + eout == pytest.approx(n, abs=1e-9 * n)
        assert ein >= 0 and eout >= 0


def test_ein_eout_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ein_eout([sample([1.0]), sample([1.0, 2.0])], Region(1.0))


def test_ein_eout_bad_weights():
    with pytest.raises(ValueError):
        ein_eout([sample([1.0], weight=0.4)], Region(1.0))


def test_sym_eigs_identity():
    assert np.allclose(sym_eigs(np.eye(3)), [1, 1, 1])


def test_sym_eigs_swap():
    assert np.allclose(sym_eigs(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])


def test_sym_eigs_cycle_graph():
    # C4 adjacency has circulant eigenvalues 2cos(2 pi j / 4)
    a = np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float
    )
    assert np.allclose(sym_eigs(a), [-2, 0, 0, 2], atol=1e-10)


def test_sym_eigs_random_crosscheck():
    rng = np.random.default_rng(23)
    for n in (2, 5, 11, 30):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        got = sym_eigs(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got, want, atol=1e-9 * max(1, np.abs(a).max()) * n)


def test_sym_eigs_trace_preserved():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((40, 40))
    a = (m + m.T) / 2
    vals = sym_eigs(a)
    assert abs(vals.sum() - np.trace(a)) <= 1e-8 * 40 * np.abs(a).max()


def test_sym_eigs_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        sym_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hashimoto_known_values():
    out = hashimoto_from_adjacency([3.0], 3)
    assert sorted(z.real for z in out) == pytest.approx([1.0, 2.0])
    out = hashimoto_from_adjacency([2.0], 3)
    assert np.allclose(sorted(out, key=lambda z: z.imag), [1 - 1j, 1 + 1j])
    out = hashimoto_from_adjacency([0.0], 3)
    assert np.allclose(
        sorted(out, key=lambda z: z.imag),
        [-1j * np.sqrt(2), 1j * np.sqrt(2)],
    )


def test_hashimoto_nonreal_modulus():
    rng = np.random.default_rng(37)
    for d in (3, 4, 7):
        mus = rng.uniform(-d, d, 300)
        out = hashimoto_from_adjacency(mus, d)
        nonreal = out[np.abs(out.imag) > 1e-12]
        if len(nonreal):
            assert np.max(np.abs(np.abs(nonreal) - np.sqrt(d - 1))) <= 1e-12


@settings(deadline=None)
@given(d=st.integers(3, 8), data=st.data())
def test_hashimoto_power_sums_follow_ihara_bass(d, data):
    # the two roots of z**2 - mu z + (d-1) have power sums p_k(mu) with
    # p_0 = 2, p_1 = mu, p_k = mu p_{k-1} - (d-1) p_{k-2}
    mus = np.array(data.draw(st.lists(st.floats(-d, d), min_size=1, max_size=6)))
    zs = hashimoto_from_adjacency(mus, d)
    p_prev, p = np.full(len(mus), 2.0), mus
    for k in range(1, 13):
        got = np.sum(zs**k)
        scale = np.sum(np.abs(zs) ** k)
        assert abs(got.real - np.sum(p)) <= 1e-9 * scale
        assert abs(got.imag) <= 1e-9 * scale
        p_prev, p = p, mus * p - (d - 1) * p_prev


def test_hashimoto_range_error():
    with pytest.raises(SpectralRangeError):
        hashimoto_from_adjacency([3.5], 3)
