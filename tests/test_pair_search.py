"""The cell-hash pair search against scipy's k-d tree, kept here as the
reference: the same pairs at any radius, and the same candidate list
handed to the Newton polish."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freeconv import collision_search, fid

cKDTree = pytest.importorskip("scipy.spatial").cKDTree

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _tree_pairs(v, radius):
    pairs = cKDTree(np.column_stack([v.real, v.imag])).query_pairs(
        r=radius, output_type="ndarray")
    return {(int(a), int(b)) for a, b in pairs}


def _hash_pairs(v, radius):
    a, b = fid._close_pairs(v.real, v.imag, radius)
    out = set(zip(a.tolist(), b.tolist()))
    assert len(out) == a.size  # no pair is met twice
    assert np.all(a < b)
    return out


def _reference_candidates(pts, vals, min_sep, max_candidates):
    """The candidate list of the k-d tree search this module replaced."""
    idx = np.nonzero(np.isfinite(vals))[0]
    v = vals[idx]
    gaps = np.abs(np.diff(v))
    gaps = gaps[gaps > 0]
    radius = float(np.median(gaps)) if gaps.size else 1e-12
    tree = cKDTree(np.column_stack([v.real, v.imag]))
    a, b = tree.query_pairs(r=radius, output_type="ndarray").T
    ia, ib = idx[a], idx[b]
    dist = np.abs(v[a] - v[b])
    keep = np.abs(pts[ia] - pts[ib]) > min_sep
    if np.count_nonzero(keep) > max_candidates > 0:
        keep &= dist <= np.partition(dist[keep],
                                     max_candidates - 1)[max_candidates - 1]
    ia, ib, dist = ia[keep], ib[keep], dist[keep]
    order = np.lexsort((ib, ia, dist))[:max_candidates]
    return pts[ia[order]], pts[ib[order]]


def _candidates(pts, vals, max_candidates, monkeypatch):
    seen = []

    def record(f, z1, z2, min_sep, val_tol):
        seen.append((z1, z2))
        return None

    monkeypatch.setattr(fid, "_refine_collision", record)
    collision_search(lambda z: vals, pts, max_candidates=max_candidates)
    return seen[0] if seen else (np.empty(0, complex), np.empty(0, complex))


# values on a small integer lattice, scaled and shifted: many duplicates,
# many pairs at exactly the lattice step (the median gap), and ties
lattice = st.builds(
    lambda ij, scale, shift: (np.array([complex(i, j) for i, j in ij])
                              * scale + shift),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
             min_size=2, max_size=80),
    st.sampled_from([1.0, 0.25, 1e-8, 3e-8, 1.7, 1e3, 1e12, 2.0 ** -30]),
    st.sampled_from([0.0, 1.0 + 1.0j, 0.1 - 0.3j, 1e12, -7e11 + 3e11j]),
)
# magnitudes spread from 1e-8 to 1e12 on both axes, with repeats
magnitude = st.builds(
    lambda e, sign: sign * 10.0 ** e,
    st.floats(-8.0, 12.0), st.sampled_from([1.0, -1.0]))
spread = st.lists(st.builds(complex, magnitude, magnitude), min_size=2,
                  max_size=60).flatmap(
    lambda vs: st.lists(st.sampled_from(vs), min_size=len(vs),
                        max_size=len(vs) + 20).map(
        lambda more: np.array(vs + more)))
values = st.one_of(lattice, spread)


def _points(n):
    # rows 5e-4 apart, closer than the default min_sep, so some pairs are
    # dropped for sitting at nearly the same point
    k = np.arange(n)
    return (k % 7) * 0.3 + 1j * (1.0 + (k // 7) * 5e-4)


@SETTINGS
@given(values, st.data())
def test_cell_hash_pairs_match_kdtree(v, data):
    gaps = np.abs(np.diff(v))
    gaps = gaps[gaps > 0]
    if not gaps.size:
        gaps = np.array([1e-12])
    # a radius at exactly a gap puts pairs on the boundary
    radius = data.draw(st.sampled_from(
        [float(np.median(gaps)), float(gaps.min()), float(gaps.max()),
         float(np.median(gaps)) * 0.25]))
    assert _hash_pairs(v, radius) == _tree_pairs(v, radius)


@SETTINGS
@given(values, st.sampled_from([1, 3, 200]))
def test_candidates_match_kdtree_search(v, max_candidates):
    pts = _points(v.size)
    want = _reference_candidates(pts, v, 1e-3, max_candidates)
    with pytest.MonkeyPatch.context() as mp:
        got = _candidates(pts, v, max_candidates, mp)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_median_gap_pair_is_found():
    # consecutive gaps 1, 3, 2: the median gap is 2, met exactly by the
    # last pair, which lies on the boundary of the search
    v = np.array([0.0, 1.0, 4.0, 6.0]) + 0j
    assert (2, 3) in _hash_pairs(v, 2.0)
    assert _hash_pairs(v, 2.0) == _tree_pairs(v, 2.0)


def test_huge_spread_keeps_int64_cells():
    # 1e12 / (a quarter of a 1e-8 gap) would overflow an int64 cell index
    v = np.array([1e-8, 2e-8, 3e-8, 1e12, 1e12 + 2.0 ** -12, -1e12]) * (1 + 1j)
    for radius in (2.5e-9, 1e-8, 2.0 ** -12 * np.sqrt(2)):
        assert _hash_pairs(v, radius) == _tree_pairs(v, radius)


@pytest.mark.parametrize("radius, xmin, xi", [
    (7.73257925772225, -5404.347168726469, -764.7996140931195),
    (0.016683273546535603, -5.721938427499902, 7.424481127170153),
])
def test_pair_at_the_radius_across_a_cell_boundary(radius, xmin, xi):
    # xi sits on a cell boundary and xi + radius, within a few ulps, on
    # the next but one: cells exactly radius wide split some of these
    # pairs after rounding in the shifted, divided coordinates
    xj = xi + radius
    x = np.array([xmin, xi] + [xj + k * np.spacing(xj) for k in range(-3, 4)])
    v = x + 0j
    assert _hash_pairs(v, radius) == _tree_pairs(v, radius)
    assert any(a == 1 for a, _ in _tree_pairs(v, radius))
