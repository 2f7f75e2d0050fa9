"""Tests for the galaxy-formation scenario (Case 1)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.galaxy as galaxy_mod
from repro.apps.galaxy import (
    ColumnDensity,
    DataReader,
    FrameCollector,
    build_galaxy_graph,
    generate_snapshots,
    register_dataset,
    sph_column_density,
    view_rotation,
)
from repro.core import LocalEngine, ParticleSnapshot, UnitError


# --- reference oracle ------------------------------------------------------
# The readable specification of the SPH scatter.  ``galaxy_mod._scatter``
# must reproduce it bit for bit (np.array_equal, never allclose): the BENCH
# baselines and the TCP-vs-sim checksums assume the fast path changes
# nothing about the rendered images.


def _reference_kernel(q):
    """2-D-normalised cubic spline (M4), support ``q`` in [0, 2)."""
    w = np.zeros_like(q)
    m1 = q < 1.0
    m2 = (q >= 1.0) & (q < 2.0)
    w[m1] = 1.0 - 1.5 * q[m1] ** 2 + 0.75 * q[m1] ** 3
    w[m2] = 0.25 * (2.0 - q[m2]) ** 3
    return w * (10.0 / (7.0 * np.pi))


def _scatter_loop(xs, ys, masses, smoothing, grid, resolution, cell, extent):
    """Per-particle reference scatter (pure-python loop over particles)."""
    for i in range(len(xs)):
        h = max(smoothing[i], cell)
        cx = int(np.floor((xs[i] + extent) / cell))
        cy = int(np.floor((ys[i] + extent) / cell))
        radius_cells = int(np.ceil(2.0 * h / cell))
        x_lo, x_hi = max(cx - radius_cells, 0), min(cx + radius_cells + 1, resolution)
        y_lo, y_hi = max(cy - radius_cells, 0), min(cy + radius_cells + 1, resolution)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue
        gx = (np.arange(x_lo, x_hi) + 0.5) * cell - extent
        gy = (np.arange(y_lo, y_hi) + 0.5) * cell - extent
        dx = (gx - xs[i])[:, None]
        dy = (gy - ys[i])[None, :]
        q = np.sqrt(dx**2 + dy**2) / h
        # h * h (not h**2): numpy's *scalar* power goes through libm pow,
        # which can differ from the array path's x*x square by 1 ulp.
        w = _reference_kernel(q) / (h * h)
        grid[x_lo:x_hi, y_lo:y_hi] += masses[i] * w


def _reference_render(snapshot, resolution, view="xy", extent=2.5, theta=0.0, phi=0.0):
    """:func:`sph_column_density` with the reference loop as its scatter."""
    positions = snapshot.positions
    if theta != 0.0 or phi != 0.0:
        positions = positions @ view_rotation(theta, phi).T
    ax, ay = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}[view]
    grid = np.zeros((resolution, resolution))
    cell = 2.0 * extent / resolution
    _scatter_loop(positions[:, ax], positions[:, ay], snapshot.masses,
                  snapshot.smoothing, grid, resolution, cell, extent)
    return grid


def _scatter_both(xs, ys, masses, smoothing, resolution, extent=2.5):
    cell = 2 * extent / resolution
    expected = np.zeros((resolution, resolution))
    got = np.zeros((resolution, resolution))
    _scatter_loop(xs, ys, masses, smoothing, expected, resolution, cell, extent)
    galaxy_mod._scatter(xs, ys, masses, smoothing, got, resolution, cell, extent)
    return expected, got


class TestSnapshots:
    def test_shapes_and_count(self):
        frames = generate_snapshots(n_frames=5, n_particles=300, seed=1)
        assert len(frames) == 5
        for f in frames:
            assert len(f) == 300
            assert f.positions.shape == (300, 3)

    def test_deterministic(self):
        a = generate_snapshots(n_frames=3, n_particles=100, seed=7)
        b = generate_snapshots(n_frames=3, n_particles=100, seed=7)
        np.testing.assert_array_equal(a[2].positions, b[2].positions)

    def test_collapse_over_time(self):
        frames = generate_snapshots(n_frames=8, n_particles=500, seed=2)
        r_first = np.linalg.norm(frames[0].positions[:, :2], axis=1).mean()
        r_last = np.linalg.norm(frames[-1].positions[:, :2], axis=1).mean()
        assert r_last < r_first

    def test_mass_conserved_across_frames(self):
        frames = generate_snapshots(n_frames=4, n_particles=200, seed=3)
        totals = [f.masses.sum() for f in frames]
        np.testing.assert_allclose(totals, totals[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_snapshots(n_frames=0)


class TestSPHRender:
    def test_flux_roughly_conserved(self):
        """Kernel scatter deposits (nearly) the total mass onto the grid."""
        frames = generate_snapshots(n_frames=1, n_particles=400, seed=4)
        grid = sph_column_density(frames[0], resolution=96, extent=6.0)
        cell_area = (2 * 6.0 / 96) ** 2
        assert grid.sum() * cell_area == pytest.approx(frames[0].masses.sum(), rel=0.15)

    def test_centrally_concentrated(self):
        frames = generate_snapshots(n_frames=1, n_particles=800, seed=5)
        grid = sph_column_density(frames[0], resolution=64)
        centre = grid[24:40, 24:40].mean()
        edge = np.concatenate([grid[:4].ravel(), grid[-4:].ravel()]).mean()
        assert centre > 10 * edge

    def test_views_differ(self):
        frames = generate_snapshots(n_frames=2, n_particles=300, seed=6)
        late = frames[-1]  # flattened disc: xy ≠ xz
        xy = sph_column_density(late, resolution=32, view="xy")
        xz = sph_column_density(late, resolution=32, view="xz")
        assert not np.allclose(xy, xz)

    def test_bad_view_and_resolution(self):
        frames = generate_snapshots(n_frames=1, n_particles=10, seed=0)
        with pytest.raises(ValueError):
            sph_column_density(frames[0], view="qq")
        with pytest.raises(ValueError):
            sph_column_density(frames[0], resolution=2)

    def test_nonnegative(self):
        frames = generate_snapshots(n_frames=1, n_particles=100, seed=8)
        grid = sph_column_density(frames[0], resolution=32)
        assert (grid >= 0).all()


class TestUnits:
    def test_data_reader_emits_in_order(self):
        frames = generate_snapshots(n_frames=3, n_particles=50, seed=9,
                                    register_as="test-ds-1")
        reader = DataReader(dataset="test-ds-1")
        for expected in frames:
            (got,) = reader.process([])
            assert got.time == expected.time

    def test_data_reader_exhaustion(self):
        generate_snapshots(n_frames=1, n_particles=10, seed=0, register_as="test-ds-2")
        reader = DataReader(dataset="test-ds-2")
        reader.process([])
        with pytest.raises(UnitError):
            reader.process([])

    def test_data_reader_unknown_dataset(self):
        with pytest.raises(UnitError):
            DataReader(dataset="nope").process([])

    def test_data_reader_checkpoint(self):
        generate_snapshots(n_frames=3, n_particles=10, seed=0, register_as="test-ds-3")
        r1 = DataReader(dataset="test-ds-3")
        r1.process([])
        state = r1.checkpoint()
        r2 = DataReader(dataset="test-ds-3")
        r2.restore(state)
        (frame,) = r2.process([])
        assert frame.time == generate_snapshots(3, 10, 0)[1].time

    def test_column_density_unit(self):
        frames = generate_snapshots(n_frames=1, n_particles=100, seed=10)
        (img,) = ColumnDensity(resolution=32).process([frames[0]])
        assert img.shape == (32, 32)

    @pytest.mark.parametrize("resolution", [32, 64, 127])
    def test_scatter_vectorized_bit_identical_to_loop(self, resolution):
        """The compact scatter reproduces the reference loop bit for bit."""
        rng = np.random.default_rng(7)
        n = 500
        xs = rng.uniform(-3.0, 3.0, n)  # some particles off-grid
        ys = rng.uniform(-3.0, 3.0, n)
        masses = rng.uniform(0.1, 2.0, n)
        smoothing = rng.uniform(0.0, 0.4, n)  # below-cell values clamp
        expected, got = _scatter_both(xs, ys, masses, smoothing, resolution)
        assert np.array_equal(expected, got)

    def test_scatter_chunking_is_bit_neutral(self, monkeypatch):
        """A tiny element budget (forcing many chunks) changes nothing."""
        rng = np.random.default_rng(11)
        n = 300
        xs = rng.uniform(-2.0, 2.0, n)
        ys = rng.uniform(-2.0, 2.0, n)
        masses = rng.uniform(0.1, 2.0, n)
        smoothing = rng.uniform(0.0, 0.5, n)
        expected, one_chunk = _scatter_both(xs, ys, masses, smoothing, 48)
        monkeypatch.setattr(galaxy_mod, "_SCATTER_CHUNK_ELEMENTS", 500)
        _, many_chunks = _scatter_both(xs, ys, masses, smoothing, 48)
        assert np.array_equal(expected, one_chunk)
        assert np.array_equal(expected, many_chunks)

    def test_scatter_memory_bounded_by_budget(self, monkeypatch):
        """Huge smoothing lengths are clipped to the grid before anything
        is allocated, and the chunk budget bounds the temporaries: the
        unclipped (2r+1)**2 window of h = 1e6 at 64x64 would be ~6.6e14
        cells, and 64 particles of 64x64 windows would be 262k cells."""
        budget = 1 << 13
        monkeypatch.setattr(galaxy_mod, "_SCATTER_CHUNK_ELEMENTS", budget)
        resolution = 64
        # 16 float64s per budgeted element, for all live temporaries.
        bound = (budget + resolution**2) * 16 * 8
        for n in (1, 64):
            snap = ParticleSnapshot(
                positions=np.linspace(-1.0, 1.0, 3 * n).reshape(n, 3),
                masses=np.full(n, 1.0 / n),
                smoothing=np.full(n, 1e6),
            )
            tracemalloc.start()
            try:
                got = sph_column_density(snap, resolution=resolution)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak, bound)
            assert np.array_equal(got, _reference_render(snap, resolution))

    def test_kernel_matches_reference(self):
        q = np.concatenate([
            np.linspace(0.0, 2.5, 100_001),
            np.nextafter([1.0, 1.0, 2.0, 2.0], [0.0, 2.0, 0.0, 3.0]),
            [0.0, 1.0, 2.0, 1e300, np.inf],
        ])
        assert np.array_equal(galaxy_mod._cubic_spline_kernel(q), _reference_kernel(q))

    @pytest.mark.parametrize("field", ["positions", "masses", "smoothing"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_particles_are_rejected(self, field, bad):
        """Non-finite data is an error, never a silently dropped particle
        or an all-zero image."""
        snap = generate_snapshots(n_frames=1, n_particles=20, seed=3)[0]
        values = getattr(snap, field).copy()
        values.reshape(-1)[5] = bad
        setattr(snap, field, values)
        with pytest.raises(ValueError, match=field):
            sph_column_density(snap, resolution=16)
        with pytest.raises(UnitError, match=field):
            ColumnDensity(resolution=16).process([snap])

    def test_coordinates_overflowing_the_grid_are_rejected(self):
        """Finite data whose cell coordinates overflow (the reference loop
        raises OverflowError) is an error, not a garbage integer window."""
        for field, value in (("positions", 1e308), ("smoothing", 1e308)):
            snap = generate_snapshots(n_frames=1, n_particles=5, seed=3)[0]
            getattr(snap, field).reshape(-1)[0] = value
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
                sph_column_density(snap, resolution=16, extent=1e-3)

    def test_column_density_bad_view_is_unit_error(self):
        frames = generate_snapshots(n_frames=1, n_particles=10, seed=0)
        with pytest.raises(UnitError):
            ColumnDensity(view="zz").process([frames[0]])

    def test_frame_collector_animation(self):
        from repro.core import ImageData

        fc = FrameCollector()
        for i in range(3):
            fc.process([ImageData(pixels=np.full((4, 4), float(i)))])
        anim = fc.animation()
        assert anim.shape == (3, 4, 4)
        np.testing.assert_allclose(anim[2], 2.0)

    def test_frame_collector_empty(self):
        with pytest.raises(UnitError):
            FrameCollector().animation()

    def test_cost_model_scales_with_particles(self):
        cd = ColumnDensity()
        assert cd.estimated_flops(40 * 10_000) > 50 * cd.estimated_flops(40 * 100)


@st.composite
def _render_cases(draw):
    """Particle sets covering the scatter's edge cases: no or one particle,
    off-grid positions, ``h`` below one cell and far above ``extent``,
    windows clipped by every edge, and rotated views."""
    n = draw(st.sampled_from([0, 1, 2, draw(st.integers(3, 300))]))
    resolution = draw(st.integers(4, 128))
    extent = draw(st.sampled_from([0.5, 2.5, 7.0]))
    h_scale = draw(st.sampled_from([0.01, 0.3, 2.0, 200.0])) * extent
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(-1.5 * extent, 1.5 * extent, (n, 3))
    if n and draw(st.booleans()):  # exactly on cell edges and grid borders
        positions[: n // 2 + 1] = rng.integers(-resolution, resolution + 1, (n // 2 + 1, 3)) * (
            extent / resolution
        )
    snap = ParticleSnapshot(
        positions=positions,
        masses=rng.uniform(-0.5, 2.0, n),
        smoothing=rng.uniform(0.0, 1.0, n) * h_scale,
    )
    view = draw(st.sampled_from(["xy", "xz", "yz"]))
    angles = draw(st.sampled_from([(0.0, 0.0), (0.3, 1.1), (np.pi / 2, -2.0)]))
    return snap, resolution, view, extent, angles


class TestScatterOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(_render_cases())
    def test_render_bit_identical_to_reference_loop(self, case):
        snap, resolution, view, extent, (theta, phi) = case
        got = sph_column_density(snap, resolution=resolution, view=view, extent=extent,
                                 theta=theta, phi=phi)
        expected = _reference_render(snap, resolution, view, extent, theta, phi)
        assert np.array_equal(got, expected)


class TestLocalPipeline:
    def test_graph_runs_locally(self):
        generate_snapshots(n_frames=4, n_particles=120, seed=11,
                           register_as="test-ds-local")
        g = build_galaxy_graph("test-ds-local", resolution=24, policy="none")
        engine = LocalEngine(g)
        engine.run(iterations=4)
        collector = engine.units["Collector"]
        assert collector.animation().shape == (4, 24, 24)


class TestDistributedFarm:
    def test_farm_matches_local_render(self):
        """Paper's headline: frames rendered remotely, returned in order."""
        from repro import ConsumerGrid

        generate_snapshots(n_frames=6, n_particles=150, seed=12,
                           register_as="test-ds-farm")
        g = build_galaxy_graph("test-ds-farm", resolution=24, policy="parallel")
        grid = ConsumerGrid(n_workers=3, seed=13)
        report = grid.run(g, iterations=6)
        assert len(report.group_results) == 6

        # Reference: local render of the same frames.
        frames = generate_snapshots(n_frames=6, n_particles=150, seed=12)
        for it, outputs in enumerate(report.group_results):
            expected = sph_column_density(frames[it], resolution=24)
            np.testing.assert_allclose(outputs[0].pixels, expected)

        collector = grid.controller.last_downstream.units["Collector"]
        assert collector.animation().shape[0] == 6


class TestPipelineTwoGroups:
    def test_post_production_matches_local(self):
        """Render farm + post-production farm in one staged run."""
        from repro import ConsumerGrid
        from repro.apps.galaxy import build_galaxy_pipeline_graph

        generate_snapshots(n_frames=5, n_particles=120, seed=21,
                           register_as="test-ds-pipe")
        g = build_galaxy_pipeline_graph("test-ds-pipe", resolution=24)
        assert {grp.name: grp.policy for grp in g.groups()} == {
            "RenderFarm": "parallel",
            "PostFarm": "chunked",
        }
        grid = ConsumerGrid(n_workers=4, seed=22)
        report = grid.run(g, iterations=5)
        assert report.policy == "parallel+chunked"
        assert len(report.group_results) == 5

        local = LocalEngine(
            build_galaxy_pipeline_graph("test-ds-pipe", resolution=24)
        )
        local.run(5)
        reference = local.units["Collector"].animation()
        distributed = (
            grid.controller.last_downstream.units["Collector"].animation()
        )
        np.testing.assert_allclose(distributed, reference)
