"""Grids, moving domains, rasterization, slice plans, Hausdorff distance."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import slabflow
from helpers import interval_domain, interval_region, union_phi
from slabflow import (
    DegenerateSectionError,
    DomainRangeError,
    GeometryError,
    Grid,
    MarginError,
    Num,
    TimeDomain,
    UndefinedDistanceError,
    build_slice_plan,
    hausdorff_distance,
    parse_expr,
    rasterize,
    sample_slab,
    sample_spacetime,
    section,
    side_limits,
    slab_hausdorff,
)
from slabflow.geometry import FINE, MAX_SAMPLES, _lattice

XS = np.linspace(-0.5, 2.0, 41)  # spacing 1/16, exact in binary


def span(lo, hi):
    """The points of XS in the closed interval [lo, hi]."""
    return (XS >= lo) & (XS <= hi)


def members(region):
    """Which points of XS lie in a 1D section."""
    return region.contains(XS[:, None])


# --- grids -------------------------------------------------------------------


def test_grid_geometry():
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.25,), counts=(12,))
    assert g.box == ((-0.5, 2.5),)
    assert g.n_nodes == 13
    assert g.shape == (13,)
    assert g.axis_nodes(0)[0] == -0.5
    assert g.axis_nodes(0)[-1] == 2.5
    assert g.cell_volume == 0.25


def test_grid_rejects_bad_input():
    with pytest.raises(GeometryError):
        Grid(dim=3, origin=(0.0,), spacing=(0.1,), counts=(10,))
    with pytest.raises(GeometryError):
        Grid(dim=1, origin=(0.0,), spacing=(0.1,), counts=(2,))
    with pytest.raises(GeometryError):
        Grid(dim=1, origin=(0.0,), spacing=(-0.1,), counts=(10,))
    with pytest.raises(GeometryError):
        Grid(dim=2, origin=(0.0,), spacing=(0.1, 0.1), counts=(10, 10))


def test_grid_2d_coords():
    g = Grid(dim=2, origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(4, 4))
    coords = g.node_coords()
    assert coords.shape == (25, 2)
    assert coords[0].tolist() == [0.0, 1.0]
    assert coords[-1].tolist() == [2.0, 2.0]


def test_node_coords_is_one_read_only_lattice_per_grid():
    g = Grid(dim=2, origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(4, 3))
    coords = g.node_coords()
    assert g.node_coords() is coords
    assert not coords.flags.writeable
    with pytest.raises(ValueError):
        coords[0, 0] = 9.0
    assert np.array_equal(coords, _lattice([g.axis_nodes(0), g.axis_nodes(1)]))


def test_importing_the_package_leaves_scipy_spatial_unloaded():
    """The k-d tree is imported by hausdorff_distance alone, so plain
    imports (every CLI run) skip scipy.spatial and what it pulls in."""
    src = str(Path(slabflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, slabflow; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --- rasterization -----------------------------------------------------------


def test_rasterize_unit_interval_on_quarter_grid():
    """Hand enumeration: nodes -0.5, -0.25, ..., 2.5; closure [0, 1]."""
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.25,), counts=(12,))
    mask = rasterize(interval_region((0.0, 1.0)), g)
    assert mask.active_points().ravel().tolist() == [0.25, 0.5, 0.75]
    assert mask.ghost_points().ravel().tolist() == [0.0, 1.0]
    assert mask.active_count == 3


def test_rasterize_uses_closure_membership():
    # endpoints on nodes: 0.0 and 1.0 belong to the closure, so 0.25 keeps
    # both neighbours inside and stays active
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.25,), counts=(12,))
    mask = rasterize(interval_region((0.0, 1.0)), g)
    assert 0.25 in mask.active_points().ravel()


def test_ghost_layer_is_dilation_minus_active():
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.125,), counts=(24,))
    mask = rasterize(interval_region((0.0, 1.0)), g)
    active = mask.active
    shifted = np.zeros_like(active)
    shifted[1:] |= active[:-1]
    shifted[:-1] |= active[1:]
    assert np.array_equal(mask.ghost, shifted & ~active)
    assert not np.any(mask.active & mask.ghost)


def test_rasterize_empty_section_raises():
    g = Grid(dim=1, origin=(-0.75,), spacing=(0.25,), counts=(10,))
    with pytest.raises(DegenerateSectionError):
        rasterize(interval_region((0.1, 0.2)), g)


def test_rasterize_margin_enforced():
    g = Grid(dim=1, origin=(0.0,), spacing=(0.25,), counts=(4,))
    with pytest.raises(MarginError):
        rasterize(interval_region((0.0, 1.0)), g)


def test_rasterize_2d_disk():
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(0.125, 0.125), counts=(16, 16))
    phi = parse_expr("x^2 + y^2 - 0.25", ("t", "x", "y"))
    dom = TimeDomain.implicit(phi, 1.0, dim=2)
    mask = rasterize(section(dom, 0.0), g)
    assert mask.active_count > 0
    # symmetry of the disk
    assert np.array_equal(mask.active, mask.active[::-1, :])
    assert np.array_equal(mask.active, mask.active[:, ::-1])
    # every active point is inside the disk
    pts = mask.active_points()
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.25 + 1e-12)


def test_rasterize_is_deterministic():
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.25,), counts=(12,))
    a = rasterize(interval_region((0.0, 1.0)), g)
    b = rasterize(interval_region((0.0, 1.0)), g)
    assert a == b


def test_nested_regions_give_nested_masks():
    rng = np.random.default_rng(7)
    g = Grid(dim=1, origin=(-1.0,), spacing=(0.0625,), counts=(48,))
    for _ in range(25):
        lo = rng.uniform(-0.5, 0.2)
        hi = rng.uniform(lo + 0.5, 1.5)
        pad = rng.uniform(0.0, 0.2)
        inner = rasterize(interval_region((lo, hi)), g)
        outer = rasterize(interval_region((lo - pad, hi + pad)), g)
        assert not np.any(inner.active & ~outer.active)


# --- time domains ------------------------------------------------------------


def test_section_tracks_the_moving_interval():
    dom = interval_domain("0", "1 + t/2", 1.0)
    assert np.array_equal(members(section(dom, 0.0)), span(0.0, 1.0))
    assert np.array_equal(members(section(dom, 1.0)), span(0.0, 1.5))


def test_time_range_is_validated():
    dom = interval_domain("0", "1", 1.0)
    with pytest.raises(DomainRangeError):
        section(dom, 1.5)
    with pytest.raises(DomainRangeError):
        section(dom, -0.1)


def test_side_limits_agree_away_from_jumps():
    dom = interval_domain("0", "1 + t", 1.0)
    before, after = side_limits(dom, 0.5)
    assert before == after
    assert np.array_equal(members(after), span(0.0, 1.5))


def test_jump_side_limits_and_classification():
    """At a jump the segment in force changes: the nodes new after it are
    after & ~before, the nodes lost before & ~after."""
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),))
    assert dom.jump_times() == (0.3,)
    before, after = (members(region) for region in side_limits(dom, 0.3))
    assert np.array_equal(before, span(0.0, 1.0))
    assert np.array_equal(after, span(0.0, 1.5))
    assert np.array_equal(after & ~before, span(1.0, 1.5) & ~span(1.0, 1.0))
    assert not np.any(before & ~after)


def test_contraction_classification():
    dom = interval_domain("0", "1.5", 0.6, jumps=((0.3, "0.25", "1.25"),))
    before, after = (members(region) for region in side_limits(dom, 0.3))
    assert not np.any(after & ~before)
    assert np.array_equal(before & ~after, span(0.0, 1.5) & ~span(0.25, 1.25))


def test_classify_away_from_jump_is_empty():
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),))
    before, after = side_limits(dom, 0.15)
    assert before == after


def test_implicit_domain_reports_declared_jumps():
    """A level-set domain jumps where a later segment starts, in any dimension."""
    disk = parse_expr("x^2 + y^2 - 0.25", ("t", "x", "y"))
    wide = parse_expr("x^2 + y^2 - 0.64", ("t", "x", "y"))
    dom = TimeDomain(1.0, 2, ((0.0, disk), (0.5, wide)))
    assert dom.jump_times() == (0.5,)
    before, after = side_limits(dom, 0.5)
    assert (before.phi, after.phi) == (disk, wide)
    assert side_limits(dom, 0.25) == (section(dom, 0.25),) * 2
    assert section(dom, 1.0).phi == wide


@settings(max_examples=100, deadline=None, derandomize=True)
@given(horizon=st.floats(0.5, 4.0), fractions=st.lists(st.floats(0.001, 0.999), max_size=3, unique=True))
def test_side_limits_pick_the_segments_a_scan_of_the_starts_picks(horizon, fractions):
    """With one to four segments, at 0, T, each start and between starts, each
    side's phi is the segment a linear scan of the starts picks; a time outside
    [0, T] raises."""
    starts = [0.0, *sorted(horizon * f for f in fractions)]
    assume(all(a < b for a, b in zip(starts, starts[1:] + [horizon])))
    dom = TimeDomain(horizon, 1, tuple((start, Num(float(k))) for k, start in enumerate(starts)))
    between = [0.5 * (a + b) for a, b in zip(starts, starts[1:] + [horizon])]
    for t in [0.0, horizon, *starts, *between]:
        after = max(k for k, start in enumerate(starts) if start <= t)
        before = max((k for k, start in enumerate(starts) if start < t), default=0)
        limits = side_limits(dom, t)
        assert [region.phi for region in limits] == [Num(float(before)), Num(float(after))]
        assert all(region.t == t for region in limits)
        assert section(dom, t) == limits[1]
    for t in (-horizon, np.nextafter(0.0, -1.0), np.nextafter(horizon, np.inf), 2.0 * horizon):
        for query in (side_limits, section):
            with pytest.raises(DomainRangeError):
                query(dom, t)


def test_implicit_1d_section_recovers_interval():
    phi = parse_expr("abs(x) - (1 + t)", ("t", "x"))
    dom = TimeDomain.implicit(phi, 1.0, dim=1)
    assert np.array_equal(members(section(dom, 0.5)), span(-1.5, 1.5))


def test_track_must_start_at_zero():
    with pytest.raises(GeometryError):
        TimeDomain(1.0, 1, ((0.1, union_phi((0.0, 1.0))),))


# --- slice plans --------------------------------------------------------------


def test_uniform_knots_without_jumps():
    dom = interval_domain("0", "1 + t", 1.0)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(40,))
    plan = build_slice_plan(dom, g, 4)
    assert np.allclose(plan.knots, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert plan.n_slices == 4
    assert plan.delta == pytest.approx(0.25)


def test_jump_times_become_knots():
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),))
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(32,))
    plan = build_slice_plan(dom, g, 4)
    assert np.allclose(plan.knots, [0.0, 0.15, 0.3, 0.45, 0.6])
    # mask on [0.3, 0.45) uses the post-jump section
    assert plan.masks[2].active_count > plan.masks[1].active_count


def test_plan_rejects_narrow_component():
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.25,), counts=(12,))
    dom = TimeDomain.implicit(union_phi((0.0, 1.0), (1.4, 1.7)), 1.0)
    with pytest.raises(DegenerateSectionError) as err:
        build_slice_plan(dom, g, 2)
    assert "t=0" in str(err.value)


DISK_SPACINGS = (0.075, 0.07, 0.06, 0.05, 0.042, 0.035, 0.03, 0.025, 0.021, 0.015, 0.0125, 0.01)


def disk_on_grid(h):
    """The bundled disk2d domain on its box [-1.05, 1.05]^2 at spacing h."""
    scenario = slabflow.load_scenario(slabflow.bundled_scenario_paths()["disk2d"])
    n = round(2.1 / h)
    return scenario, Grid(dim=2, origin=(-1.05, -1.05), spacing=(h, h), counts=(n, n))


def test_disk_plans_at_every_spacing_and_slice_count():
    """The 2x2 block cover test refused 6 of these spacings and 29 of the
    slice counts 1-64 at h = 0.021; the block core plans them all."""
    for h in DISK_SPACINGS:
        scenario, g = disk_on_grid(h)
        assert scenario.grid.box == g.box
        build_slice_plan(scenario.domain, g, scenario.n_slices)
    scenario, g = disk_on_grid(0.021)
    for n_slices in range(1, 65):
        plan = build_slice_plan(scenario.domain, g, n_slices)
        assert plan.n_slices == n_slices


def two_interval_domain(second):
    return TimeDomain.implicit(union_phi((0.0, 1.0), second), 1.0)


def test_plan_names_a_lost_interval():
    """(1.205, 1.455) is 2.5 cells wide and holds the nodes 1.3 and 1.4, but
    none of them is active: the interval used to vanish from the plan."""
    g = Grid(dim=1, origin=(-0.5,), spacing=(0.1,), counts=(25,))
    with pytest.raises(DegenerateSectionError) as err:
        build_slice_plan(two_interval_domain((1.205, 1.455)), g, 2)
    assert "piece at [1.3, 1.4] keeps no active node" in str(err.value)
    with pytest.raises(DegenerateSectionError) as err:
        build_slice_plan(two_interval_domain((1.21, 1.29)), g, 2)
    assert "piece at [1.225, 1.275] holds no grid node" in str(err.value)  # its fine samples


def test_plan_names_a_lost_disk():
    """A disk of radius 0.02 between the nodes of the disk2d grid (h = 0.075)
    used to vanish from the 2D plan; its fine samples name it."""
    _, g = disk_on_grid(0.075)
    phi = parse_expr("min(x^2 + y^2 - 0.25, (x - 0.7125)^2 + (y - 0.0375)^2 - 0.0004)", ("t", "x", "y"))
    with pytest.raises(DegenerateSectionError) as err:
        build_slice_plan(TimeDomain.implicit(phi, 1.0, dim=2), g, 2)
    assert "piece at [0.69375, 0.73125] x [0.01875, 0.05625] holds no grid node" in str(err.value)


def test_grid_refuses_more_fine_samples_than_the_limit():
    """The size rule counts the samples a plan evaluates, (FINE*c + 1) per axis,
    before any array is made."""
    most = (MAX_SAMPLES - 1) // FINE
    Grid(dim=1, origin=(0.0,), spacing=(1.0,), counts=(most,))
    with pytest.raises(GeometryError, match=f"more than the limit of {MAX_SAMPLES}"):
        Grid(dim=1, origin=(0.0,), spacing=(1.0,), counts=(most + 1,))
    with pytest.raises(GeometryError, match=r"counts give 1\.60e\+601 fine samples"):
        Grid(dim=2, origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=(10**300, 10**300))


def test_plan_refuses_a_section_that_splits():
    """A dumbbell whose neck is one active node wide: the block core cuts
    the neck, so one inside piece would hold two active pieces."""
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(0.1, 0.1), counts=(20, 20))
    phi = parse_expr("min(max(abs(x) - 0.7, abs(y) - 0.15), (abs(x) - 0.45)^2 + y^2 - 0.09)",
                     ("t", "x", "y"))
    with pytest.raises(DegenerateSectionError, match="splits into 2 active pieces"):
        rasterize(section(TimeDomain.implicit(phi, 1.0, dim=2), 0.0), g)


@pytest.mark.parametrize("phi,error", [("-1", MarginError), ("1", DegenerateSectionError)],
                         ids=["everywhere", "nowhere"])
def test_constant_level_set_is_a_typed_error(phi, error):
    """A phi that does not read x used to leak a ValueError from a reshape."""
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(0.25, 0.25), counts=(8, 8))
    dom = TimeDomain.implicit(parse_expr(phi, ("t", "x", "y")), 1.0, dim=2)
    with pytest.raises(error):
        rasterize(section(dom, 0.0), g)


def _components(mask):
    """Connected pieces through axis neighbours, by flood fill (reference)."""
    seen, pieces = np.zeros_like(mask), []
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        piece, stack = np.zeros_like(mask), [start]
        seen[start] = piece[start] = True
        while stack:
            node = stack.pop()
            for a in range(mask.ndim):
                for step in (-1, 1):
                    nb = node[:a] + (node[a] + step,) + node[a + 1:]
                    if 0 <= nb[a] < mask.shape[a] and mask[nb] and not seen[nb]:
                        seen[nb] = piece[nb] = True
                        stack.append(nb)
        pieces.append(piece)
    return pieces


def _check_mask_invariants(mask, inside):
    active = mask.active
    neighbours = np.zeros_like(active)
    for a in range(active.ndim):
        lo, hi = (slice(None),) * a + (slice(None, -1),), (slice(None),) * a + (slice(1, None),)
        neighbours[lo] |= active[hi]
        neighbours[hi] |= active[lo]
    assert not np.any(neighbours & ~mask.defined)
    assert np.array_equal(mask.ghost, neighbours & ~active)
    if active.ndim == 2:
        block = active[:-1, :-1] & active[1:, :-1] & active[:-1, 1:] & active[1:, 1:]
        covered = np.zeros_like(active)
        for c in ((slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
                  (slice(None, -1), slice(1, None)), (slice(1, None), slice(1, None))):
            covered[c] |= block
        assert not np.any(active & ~covered)
    active_pieces = _components(active)
    for piece in _components(inside):
        assert sum(bool(np.any(piece & p)) for p in active_pieces) == 1


@st.composite
def _sections(draw):
    """A 2D disk or ellipse, or a 1D union of one to three disjoint intervals,
    a grid, and the intervals (none in 2D)."""
    if draw(st.booleans()):
        h = draw(st.floats(0.04, 0.2))
        n = int(np.ceil(2.0 / h))
        g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(h, h), counts=(n, n))
        cx, cy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        rx, ry = draw(st.floats(0.02, 0.7)), draw(st.floats(0.02, 0.7))
        phi = parse_expr(f"((x - {cx!r})/{rx!r})^2 + ((y - {cy!r})/{ry!r})^2 - 1", ("t", "x", "y"))
        return section(TimeDomain.implicit(phi, 1.0, dim=2), 0.0), g, ()
    h = draw(st.floats(0.02, 0.2))
    g = Grid(dim=1, origin=(-0.5,), spacing=(h,), counts=(int(np.ceil(2.8 / h)),))
    cuts = sorted(draw(st.lists(st.floats(-0.3, 2.4), min_size=2, max_size=6, unique=True)))
    cuts = cuts[: len(cuts) // 2 * 2]
    intervals = list(zip(cuts[::2], cuts[1::2]))
    return interval_region(*intervals), g, intervals


def _merged(intervals, gap):
    """``intervals`` (sorted, disjoint) with those at most ``gap`` apart joined."""
    out = [list(intervals[0])]
    for a, b in intervals[1:]:
        if a - out[-1][1] <= gap:
            out[-1][1] = b
        else:
            out.append([a, b])
    return out


@settings(max_examples=150, deadline=None)
@given(drawn=_sections())
def test_masks_that_plan_keep_their_invariants(drawn):
    """Each draw plans, or is refused with an error naming a box; a planned
    mask has its active neighbours defined, its 2D active nodes in
    all-active 2x2 blocks, and one active piece per inside piece.  In 1D,
    where a plan is made, every interval at least h/FINE wide in the grid's
    box holds a node once intervals too close to part on the fine samples
    are joined: such an interval always holds a fine sample (the width has
    a relative slack of 1e-9 for the rounding of the sample positions)."""
    region, g, intervals = drawn
    try:
        mask = rasterize(region, g)
    except (DegenerateSectionError, MarginError) as exc:
        assert re.search(r"\[[^\]]+, [^\]]+\]", str(exc)), str(exc)
        return
    _check_mask_invariants(mask, region.contains(g.node_coords()).reshape(g.shape))
    if intervals:
        width, (lo, hi), x = g.spacing[0] / FINE * (1 + 1e-9), g.box[0], g.axis_nodes(0)
        for a, b in _merged(intervals, width):
            a, b = max(a, lo), min(b, hi)
            if b - a >= width:
                assert np.any((a <= x) & (x <= b)), (a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 64), a0=st.floats(0.0, 0.4), width=st.floats(0.6, 1.0),
       a1=st.floats(-0.2, 0.2), b1=st.floats(-0.2, 0.2), n_slices=st.integers(1, 12))
def test_compiled_interval_plans_match_an_endpoint_oracle(n, a0, width, a1, b1, n_slices):
    """A moving interval compiled to max(left - x, x - right) plans, at every
    knot, the masks that comparing x with its endpoints gives."""
    g = Grid(dim=1, origin=(-0.5,), spacing=(1.0 / n,), counts=(3 * n,))
    b0 = a0 + width
    dom = interval_domain(f"{a0!r} + {a1!r}*t", f"{b0!r} + {b1!r}*t", 1.0)
    plan = build_slice_plan(dom, g, n_slices)
    x = g.axis_nodes(0)
    for t, mask in zip(plan.knots, plan.masks):
        inside = (x >= a0 + a1 * t) & (x <= b0 + b1 * t)
        active = np.zeros_like(inside)
        active[1:-1] = inside[:-2] & inside[1:-1] & inside[2:]
        ghost = np.zeros_like(inside)
        ghost[1:] |= active[:-1]
        ghost[:-1] |= active[1:]
        assert np.array_equal(mask.active, active)
        assert np.array_equal(mask.ghost, ghost & ~active)


def test_plan_masks_follow_expansion():
    dom = interval_domain("0", "1 + t", 1.0)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.03125,), counts=(80,))
    plan = build_slice_plan(dom, g, 4)
    counts = [m.active_count for m in plan.masks]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


# --- Hausdorff distance -------------------------------------------------------


def test_hausdorff_identical_sets_is_zero():
    pts = np.random.default_rng(3).uniform(size=(50, 2))
    assert hausdorff_distance(pts, pts.copy()) == 0.0


def test_hausdorff_of_an_empty_set_is_undefined():
    with pytest.raises(UndefinedDistanceError, match="two non-empty point sets"):
        hausdorff_distance(np.zeros((0, 2)), np.zeros((3, 2)))


def test_hausdorff_known_offset():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert hausdorff_distance(a, b) == pytest.approx(5.0)


def test_hausdorff_interval_lengthening():
    x = np.linspace(0.0, 1.0, 101)[:, None]
    y = np.linspace(0.0, 2.0, 201)[:, None]
    assert hausdorff_distance(x, y) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_is_symmetric():
    rng = np.random.default_rng(11)
    a = rng.uniform(size=(40, 2))
    b = rng.uniform(size=(60, 2)) + 0.25
    assert hausdorff_distance(a, b) == pytest.approx(hausdorff_distance(b, a))


def test_cone_slab_distance_equals_delta():
    """For the section (0, 1+t) the sliced body lags the cone by exactly
    one slice length at the final-time corner."""
    dom = interval_domain("0", "1 + t", 1.0)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(40,))
    plan = build_slice_plan(dom, g, 4)
    d = slab_hausdorff(dom, plan, resolution=0.01)
    assert d == pytest.approx(0.25, abs=0.02)


def test_slab_hausdorff_of_the_disk_meets_its_bound():
    """The implicit-region clouds: the bundled disk's radius 0.8 - 0.2t moves
    at speed L = 0.2, so d_H <= (1 + L) * delta, sampled as refinement_study does."""
    disk = slabflow.load_scenario(slabflow.bundled_scenario_paths()["disk2d"])
    g = Grid(dim=2, origin=(-1.05, -1.05), spacing=(0.021, 0.021), counts=(100, 100))
    plan = build_slice_plan(disk.domain, g, 4)
    resolution = max(plan.delta / 8.0, 0.021 / 2.0)
    assert slab_hausdorff(disk.domain, plan, resolution) <= (1 + 0.2) * plan.delta


def test_slab_distance_shrinks_with_refinement():
    dom = interval_domain("0", "1 + t", 1.0)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(40,))
    coarse = slab_hausdorff(dom, build_slice_plan(dom, g, 4), resolution=0.01)
    fine = slab_hausdorff(dom, build_slice_plan(dom, g, 8), resolution=0.01)
    assert fine <= 0.6 * coarse
    # Lipschitz endpoint with constant 1: bound (1 + L) * delta
    assert coarse <= 2 * 0.25 + 1e-9
    assert fine <= 2 * 0.125 + 1e-9


def test_sample_clouds_have_time_column():
    dom = interval_domain("0", "1 + t", 1.0)
    body = sample_spacetime(dom, ((-1.0, 3.0),), resolution=0.1)
    assert body.shape[1] == 2
    assert body[:, 0].min() == 0.0
    assert body[:, 0].max() == 1.0
    # the widest section appears at the final time
    assert body[:, 1].max() == pytest.approx(2.0, abs=1e-12)


def test_slab_cloud_covers_slice_closures():
    dom = interval_domain("0", "1 + t", 1.0)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(40,))
    plan = build_slice_plan(dom, g, 4)
    cloud = sample_slab(dom, plan, resolution=0.05)
    assert cloud[:, 0].max() == pytest.approx(1.0)
    # on the final slice the frozen section is (0, 1.75)
    last = cloud[np.isclose(cloud[:, 0], 1.0)]
    assert last[:, 1].max() == pytest.approx(1.75, abs=1e-12)
