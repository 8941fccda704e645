import numpy as np
import pytest

from oracles import propagator_oracle
from qst_control import ChainSpec, build_cache, site_by_site_set, zhang16_set
from qst_control.actions import make_action_set, zhang16_sites
from qst_control.chain import build_step_hamiltonian


def test_site_by_site_masks():
    s = site_by_site_set(4, h=100.0)
    assert len(s) == 5
    assert s.kind == "site_by_site"
    assert s.masks.shape == (5, 4)
    np.testing.assert_array_equal(s.masks[0], np.zeros(4))
    for k in range(1, 5):
        expected = np.zeros(4)
        expected[k - 1] = 100.0
        np.testing.assert_array_equal(s.masks[k], expected)


def test_site_by_site_validation():
    # the bounds and wording of ChainSpec's n and field_strength
    with pytest.raises(ValueError, match="^n: must be at least 2, got 1$"):
        site_by_site_set(1)
    with pytest.raises(ValueError, match=r"^h: must be at least 0\.0, got -1\.0$"):
        site_by_site_set(4, h=-1.0)
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^h: must be finite, got {h}$"):
            site_by_site_set(4, h=h)


def test_zhang16_requires_six_sites():
    with pytest.raises(ValueError, match="needs n >= 6"):
        zhang16_set(5)
    with pytest.raises(ValueError, match="^n: must be at least 2"):
        zhang16_set(1)
    with pytest.raises(ValueError, match="^h: must be finite, got nan$"):
        zhang16_set(6, float("nan"))
    assert len(zhang16_set(6)) == 16


def test_zhang16_support_table():
    n = 8
    # head block: binary digits of the id over sites 1..3 (0-based 0..2)
    assert zhang16_sites(0, n) == ()
    assert zhang16_sites(1, n) == (0,)
    assert zhang16_sites(2, n) == (1,)
    assert zhang16_sites(3, n) == (0, 1)
    assert zhang16_sites(4, n) == (2,)
    assert zhang16_sites(5, n) == (0, 2)
    assert zhang16_sites(6, n) == (1, 2)
    assert zhang16_sites(7, n) == (0, 1, 2)
    # tail block: bit b of (id - 7) drives site n - b (1-based)
    assert zhang16_sites(8, n) == (7,)
    assert zhang16_sites(9, n) == (6,)
    assert zhang16_sites(10, n) == (6, 7)
    assert zhang16_sites(11, n) == (5,)
    assert zhang16_sites(12, n) == (5, 7)
    assert zhang16_sites(13, n) == (5, 6)
    assert zhang16_sites(14, n) == (5, 6, 7)
    assert zhang16_sites(15, n) == tuple(range(8))


def test_zhang16_masks_distinct_even_at_minimum_size():
    s = zhang16_set(6)
    patterns = {tuple(row) for row in s.masks}
    assert len(patterns) == 16


def test_make_action_set():
    assert make_action_set("site_by_site", 4).kind == "site_by_site"
    assert make_action_set("zhang16", 8).kind == "zhang16"
    with pytest.raises(ValueError, match="unknown action set"):
        make_action_set("nope", 4)


def test_action_mask_immutable():
    s = site_by_site_set(3)
    with pytest.raises(ValueError):
        s.masks[1, 0] = 5.0


def test_cache_shape_and_unitarity():
    spec = ChainSpec(n=6)
    cache = build_cache(zhang16_set(6, spec.field_strength), spec)
    assert cache.unitaries.shape == (16, 6, 6)
    assert len(cache) == 16
    eye = np.eye(6)
    for u in cache.unitaries:
        np.testing.assert_allclose(u @ u.conj().T, eye, atol=1e-10)


def test_cache_matches_taylor_oracle():
    spec = ChainSpec(n=4)
    cache = build_cache(site_by_site_set(4, spec.field_strength), spec)
    for a, mask in enumerate(cache.action_set.masks):
        ref = propagator_oracle(build_step_hamiltonian(spec, mask), spec.dt)
        assert np.max(np.abs(cache.unitaries[a] - ref)) < 1e-10


def test_cache_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        build_cache(site_by_site_set(4), ChainSpec(n=5))


def test_cache_arrays_frozen():
    spec = ChainSpec(n=3)
    cache = build_cache(site_by_site_set(3), spec)
    with pytest.raises(ValueError):
        cache.unitaries[0, 0, 0] = 0.0
