"""The batched collision search against the one-candidate-at-a-time loop it
replaced, kept here as the reference: the same candidates in the same
order, each Newton-polished alone with scalar complex arithmetic."""

import numpy as np
import pytest

from freeconv import fid
from freeconv import (DomainError, FamilyParams, collision_search,
                      ui_counterexample_map, ui_heuristic)
from freeconv.family import _core


def _eval_clean(f, z):
    with np.errstate(all="ignore"):
        w = np.asarray(f(np.asarray([z], dtype=complex)), dtype=complex)[0]
    return complex(w)


def _refine_collision_ref(f, z1, z2, min_sep, val_tol):
    target = _eval_clean(f, z1)
    if not (np.isfinite(target.real) and np.isfinite(target.imag)):
        return None
    z = complex(z2)
    for _ in range(40):
        w = _eval_clean(f, z)
        if not (np.isfinite(w.real) and np.isfinite(w.imag)):
            return None
        d = w - target
        if abs(d) < val_tol:
            break
        h = 1e-6 * (1.0 + abs(z))
        der = (_eval_clean(f, z + h) - _eval_clean(f, z - h)) / (2.0 * h)
        if der == 0 or not np.isfinite(der.real):
            return None
        step = d / der
        cap = 0.5 * (1.0 + abs(z))
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
        if z.imag <= 0:
            return None
    else:
        return None
    if abs(z - z1) > min_sep and abs(_eval_clean(f, z) - target) < val_tol:
        return complex(z1), complex(z)
    return None


def _collision_search_ref(f, pts, min_sep=1e-3, val_tol=1e-12,
                          max_candidates=200):
    from scipy.spatial import cKDTree

    pts = np.asarray(pts, dtype=complex).ravel()
    with np.errstate(all="ignore"):
        vals = np.asarray(f(pts), dtype=complex)
    finite = np.isfinite(vals.real) & np.isfinite(vals.imag)
    idx = np.nonzero(finite)[0]
    if idx.size < 2:
        return None
    v = vals[idx]
    gaps = np.abs(np.diff(v))
    gaps = gaps[gaps > 0]
    radius = float(np.median(gaps)) if gaps.size else val_tol
    tree = cKDTree(np.column_stack([v.real, v.imag]))
    cands = []
    for a, b in sorted(tree.query_pairs(r=radius)):
        ia, ib = int(idx[a]), int(idx[b])
        if abs(pts[ia] - pts[ib]) <= min_sep:
            continue
        cands.append((abs(v[a] - v[b]), ia, ib))
    cands.sort()
    for _, ia, ib in cands[:max_candidates]:
        hit = _refine_collision_ref(f, pts[ia], pts[ib], min_sep, val_tol)
        if hit is not None:
            return hit
    return None


def _maps(p):
    def fwd(z):
        return _core(p.alpha, p.s, p.r, z, True)[0]

    def inv(z):
        return _core(p.alpha, p.s / p.r, 1.0 / p.r, z, True)[0]
    return (("reciprocal_F", fwd), ("inverse_F", inv))


def _grid(c, nx=41, ny=40):
    xs = np.linspace(-3.0, 3.0, nx) * c
    ys = np.linspace(0.02, 2.5, ny) * c
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _assert_same_pair(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12 * max(1.0, abs(want[1]))


def _counting(f, sizes):
    def g(z):
        sizes.append(np.size(z))
        return f(z)
    return g


DILATIONS = (0.5, 1.25, 2.0)


@pytest.mark.parametrize("c", DILATIONS)
def test_ui_heuristic_matches_scalar_reference(c):
    grid = _grid(c)
    for p in (FamilyParams(1.0, -c, 2.0), FamilyParams(2.0, c, 2.0),
              FamilyParams(1.0, -c, 1.5), FamilyParams(0.5, -c, 2.0)):
        want = None
        for name, f in _maps(p):
            pair = _collision_search_ref(f, grid)
            if pair is not None:
                want = {"map": name, "pair": pair}
                break
        got = ui_heuristic(p, grid)
        assert (got is None) == (want is None), (p, got, want)
        if want is not None:
            assert got["map"] == want["map"]
            _assert_same_pair(got["pair"], want["pair"])


@pytest.mark.parametrize("c", DILATIONS)
def test_counterexample_matches_scalar_reference(c):
    grid = _grid(c)

    def f(z):
        return ui_counterexample_map(z / c)
    want = _collision_search_ref(f, grid)
    assert want is not None
    _assert_same_pair(collision_search(f, grid), want)


def test_f_calls_are_bounded():
    # one call on the points, one for the targets, at most 40 Newton
    # iterations and one final check, whatever the number of candidates
    grid = _grid(1.3, 101, 99)
    p = FamilyParams(2.0, 1.3, 2.0)
    maps = _maps(p) + (("counterexample",
                        lambda z: ui_counterexample_map(z / 1.3)),)
    for _, f in maps:
        sizes = []
        collision_search(_counting(f, sizes), grid)
        assert 2 <= len(sizes) <= 43
        assert sizes[0] == grid.size
        assert max(sizes[1:]) <= 3 * 200


def test_f_never_sees_an_empty_array():
    # every pair of values coincides, but every pair of points is within
    # min_sep: no candidate survives, so f is called on the points only
    pts = 1j + 1e-5 * np.arange(10)
    sizes = []
    assert collision_search(_counting(lambda z: 0.0 * z + 1.0, sizes),
                            pts) is None
    assert sizes == [10]
    sizes = []
    assert collision_search(_counting(lambda z: z, sizes),
                            np.array([1j])) is None
    assert sizes == [1]


@pytest.mark.parametrize("max_candidates", [200, 3])
def test_tied_distances_break_by_index(max_candidates):
    # (z - i)**2 is two-to-one about i; on a dyadic grid symmetric about i
    # every mirrored pair has value distance exactly 0, so the candidate
    # order among them is decided by the (ia, ib) tie-break alone
    xs = np.arange(-4, 5) / 8.0
    ys = 1.0 + np.arange(-6, 7) / 8.0
    pts = (xs[None, :] + 1j * ys[:, None]).ravel()

    def f(z):
        return (z - 1j) ** 2
    vals = f(pts)
    n_tied = sum(1 for i in range(pts.size) for j in range(i + 1, pts.size)
                 if vals[i] == vals[j] and abs(pts[i] - pts[j]) > 1e-3)
    assert n_tied > 10
    want = _collision_search_ref(f, pts, max_candidates=max_candidates)
    assert want is not None
    assert collision_search(f, pts, max_candidates=max_candidates) == want


def test_converged_candidate_is_not_moved():
    # f(z2) is already within val_tol of f(z1): the candidate converges
    # before any step, so z2 comes back exactly as given
    def f(z):
        return (z - 1j) ** 2
    z1 = np.array([1.5 + 1j])
    z2 = np.array([-1.5 + 1e-13 + 1j])
    assert 0 < abs(f(z2)[0] - f(z1)[0]) < 1e-12
    want = _refine_collision_ref(f, z1[0], z2[0], 1e-3, 1e-12)
    assert want == (complex(z1[0]), complex(z2[0]))
    assert fid._refine_collision(f, z1, z2, 1e-3, 1e-12) == want


def test_grid_off_the_upper_half_plane_is_rejected():
    g = (np.linspace(-2.0, 2.0, 21)[None, :]
         + 1j * np.array([0.1, 0.2, 0.5])[:, None]).ravel()
    # both used to report false collisions between z and its mirror image
    with pytest.raises(DomainError):
        ui_heuristic(FamilyParams(1.0, -1.0, 2.0),
                     np.concatenate([g.conj(), g]))
    with pytest.raises(DomainError):
        collision_search(lambda z: z ** 2, np.concatenate([-g, g]))
    with pytest.raises(DomainError):
        collision_search(lambda z: z, np.array([1j, 2.0 + 0j]))
