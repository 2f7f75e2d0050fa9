"""Case 1 — galaxy-formation visualisation (§3.6.1).

"Galaxy and star formation simulation codes generate binary data files
that represent a series of particles in three dimensions ... It is
possible to distribute each time slice or frame over a number of
processes and calculate the different views based on the point of view
in parallel. ... The loaded data is ... separated into frames,
distributed amongst the various Triana servers ... and processed to
calculate the column density using smooth particle hydrodynamics."

This module provides the full workload:

* :func:`generate_snapshots` — a synthetic collapsing-Plummer-sphere
  particle dataset (the Cardiff group's binary files are not available;
  the substitution preserves per-frame independent rendering work of
  tunable cost);
* :class:`DataReader` — the single loader unit at the controller;
* :class:`ColumnDensity` — the SPH projection renderer (a real cubic-
  spline scatter, not a stub), with a view parameter so "the user can
  ... vary the perspective of view";
* :class:`FrameCollector` — the visualisation sink that animates frames
  **in order**;
* :func:`build_galaxy_graph` — the distributable task graph.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.errors import UnitError
from ..core.registry import register_unit
from ..core.types import ImageData, ParticleSnapshot
from ..core.units import ParamSpec, Unit
from ..core.taskgraph import TaskGraph

__all__ = [
    "generate_snapshots",
    "register_dataset",
    "sph_column_density",
    "view_rotation",
    "DataReader",
    "ColumnDensity",
    "FrameCollector",
    "build_galaxy_graph",
    "build_galaxy_pipeline_graph",
]

#: Dataset registry: DataReader units reference datasets by key so the
#: task-graph XML stays a small text file (the data itself is shipped as
#: payloads, exactly like the paper's "data file is loaded by a single
#: Data Reader Unit ... and passed to all the Triana nodes").
_DATASETS: dict[str, list[ParticleSnapshot]] = {}


def register_dataset(key: str, snapshots: Sequence[ParticleSnapshot]) -> None:
    """Make a snapshot series available to DataReader units."""
    _DATASETS[key] = list(snapshots)


def generate_snapshots(
    n_frames: int = 16,
    n_particles: int = 2000,
    seed: int = 0,
    register_as: str | None = None,
) -> list[ParticleSnapshot]:
    """Synthesise a collapsing, rotating Plummer sphere over time.

    Each frame is one "snap shot in time of the total data set"; frames
    are independent render inputs, which is what makes the parallel farm
    policy applicable.
    """
    if n_frames < 1 or n_particles < 1:
        raise ValueError("n_frames and n_particles must be >= 1")
    rng = np.random.default_rng(seed)
    # Plummer-sphere radial profile.
    a = 1.0
    u = rng.random(n_particles)
    r = a / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    r = np.clip(r, 0, 5 * a)
    costheta = rng.uniform(-1, 1, n_particles)
    phi = rng.uniform(0, 2 * np.pi, n_particles)
    sintheta = np.sqrt(1 - costheta**2)
    pos0 = np.column_stack(
        [
            r * sintheta * np.cos(phi),
            r * sintheta * np.sin(phi),
            r * costheta,
        ]
    )
    masses = np.full(n_particles, 1.0 / n_particles)
    smoothing = 0.1 + 0.2 * r / (5 * a)

    frames = []
    for k in range(n_frames):
        t = k / max(n_frames - 1, 1)
        # Collapse radially and spin up around z, like a forming disc.
        shrink = 1.0 - 0.5 * t
        angle = 2.0 * np.pi * t
        c, s = np.cos(angle * (1.0 + r / a)), np.sin(angle * (1.0 + r / a))
        x = shrink * (pos0[:, 0] * c - pos0[:, 1] * s)
        y = shrink * (pos0[:, 0] * s + pos0[:, 1] * c)
        z = pos0[:, 2] * (1.0 - 0.8 * t)  # flatten into a disc
        frames.append(
            ParticleSnapshot(
                positions=np.column_stack([x, y, z]),
                masses=masses.copy(),
                smoothing=smoothing * shrink,
                time=float(t),
            )
        )
    if register_as is not None:
        register_dataset(register_as, frames)
    return frames


_VIEW_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def view_rotation(theta: float, phi: float) -> np.ndarray:
    """Rotation matrix for an arbitrary viewing direction.

    ``theta`` tilts about the x axis, ``phi`` spins about the z axis
    (radians); the projection plane is the rotated frame's xy plane —
    "the ability to vary the perspective of view" continuously.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rot_z = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
    return rot_x @ rot_z


#: Element budget per scatter chunk (particles x clipped window cells);
#: bounds the chunk's temporaries whatever the smoothing lengths.
_SCATTER_CHUNK_ELEMENTS = 1 << 18


def _cubic_spline_kernel(q: np.ndarray) -> np.ndarray:
    """2-D-normalised cubic spline (M4) with support [0, 2), for ``q >= 0``
    (``inf`` allowed).

    Evaluates ``0.25 * (2 - q)**3`` everywhere, clamped to 0 from
    ``q = 2``, then overwrites ``q < 1`` with ``1 - 1.5 q**2 + 0.75 q**3``:
    the same float expressions per element as the masked textbook form.
    """
    w = np.maximum(2.0 - q, 0.0)
    w **= 3
    w *= 0.25
    inner = q < 1.0
    a = q[inner]
    w[inner] = 1.0 - 1.5 * a**2 + 0.75 * a**3
    w *= 10.0 / (7.0 * np.pi)
    return w


def _scatter(xs, ys, masses, smoothing, grid, resolution, cell, extent) -> None:
    """Add every particle's SPH kernel to ``grid``, in particle order.

    The reference is a per-particle loop (the oracle ``_scatter_loop`` in
    ``tests/test_apps_galaxy.py``) that, for particle ``i`` with
    ``h = max(smoothing[i], cell)``, adds ``masses[i] * w`` over its
    clipped window ``[cx - r, cx + r] x [cy - r, cy + r]`` (``r =
    ceil(2h / cell)``), where ``w = kernel(sqrt(dx**2 + dy**2) / h) /
    (h * h)`` at the cell centres ``(idx + 0.5) * cell - extent``.  This
    compact form is bit-identical to that loop because:

    1. every per-element float expression is the loop's: the cell
       centres, ``sqrt(dx**2 + dy**2) / h``, :func:`_cubic_spline_kernel`,
       ``/ (h * h)`` and ``masses * w``;
    2. each cell receives its contributions in particle order: the
       particles are grouped by window span only to compute, and every
       contribution is written back into one particle-major stream at
       offsets from a cumsum of kept-cell counts.  ``np.bincount`` adds
       its weights in input order, and each chunk's stream starts with
       the grid so far, so chunks chain in particle order too;
    3. the only entries dropped are exact zeros: cells outside the
       particle's clipped window (the loop never visits them) and cells
       with ``q >= 2`` (contribution ``mass * 0.0``).  Adding a zero
       leaves a grid cell bitwise unchanged, as a cell summed from +0.0
       is never -0.0;
    4. temporaries stay under :data:`_SCATTER_CHUNK_ELEMENTS` elements
       (or one particle's window, at most ``resolution**2``): windows are
       clipped to the grid before anything is allocated, and chunks are
       cut from a cumsum of clipped window sizes.

    Window bounds are computed in float and clipped to ``[0,
    resolution]``; rounding of out-of-range bounds cannot cross the
    clip, so they equal the loop's integer bounds.
    """
    h = np.maximum(smoothing, cell)
    cx = np.floor((xs + extent) / cell)
    cy = np.floor((ys + extent) / cell)
    radius = np.ceil(2.0 * h / cell)
    if not (np.isfinite(cx).all() and np.isfinite(cy).all() and np.isfinite(radius).all()):
        raise ValueError("particle coordinates overflow the grid")
    x_lo = np.clip(cx - radius, 0, resolution).astype(np.int64)
    x_hi = np.clip(cx + radius + 1, 0, resolution).astype(np.int64)
    y_lo = np.clip(cy - radius, 0, resolution).astype(np.int64)
    y_hi = np.clip(cy + radius + 1, 0, resolution).astype(np.int64)
    live = np.flatnonzero((x_lo < x_hi) & (y_lo < y_hi))
    span = np.minimum(2 * radius[live] + 1, resolution).astype(np.int64)
    size = np.cumsum(span * span)
    total = int(size[-1]) if len(size) else 0
    cuts = np.searchsorted(
        size, np.arange(_SCATTER_CHUNK_ELEMENTS, total, _SCATTER_CHUNK_ELEMENTS), "right"
    )
    hh = h * h
    flat = grid.reshape(-1)
    ncell = resolution * resolution
    for part, part_span in zip(np.split(live, cuts), np.split(span, cuts)):
        if len(part) == 0:
            continue
        counts = np.empty(len(part), dtype=np.int64)
        groups = []
        for s in np.unique(part_span).tolist():
            g = np.flatnonzero(part_span == s)
            p = part[g]
            ix = x_lo[p, None] + np.arange(s)
            iy = y_lo[p, None] + np.arange(s)
            dx = ((ix + 0.5) * cell - extent) - xs[p, None]
            dy = ((iy + 0.5) * cell - extent) - ys[p, None]
            dx **= 2
            dy **= 2
            # Cells past the particle's own window get q = inf: dropped.
            dx[ix >= x_hi[p, None]] = np.inf
            dy[iy >= y_hi[p, None]] = np.inf
            q = dx[:, :, None] + dy[:, None, :]
            np.sqrt(q, out=q)
            q /= h[p, None, None]
            k = np.flatnonzero(q < 2.0)
            kept = np.diff(np.searchsorted(k, np.arange(len(p) + 1) * (s * s)))
            counts[g] = kept
            w = _cubic_spline_kernel(q.reshape(-1)[k])
            w /= np.repeat(hh[p], kept)
            w *= np.repeat(masses[p], kept)
            window = (np.arange(s)[:, None] * resolution + np.arange(s)).ravel()
            cells = (x_lo[p] * resolution + y_lo[p])[:, None] + window
            groups.append((g, kept, cells.reshape(-1)[k], w))
        offset = np.cumsum(counts) - counts + ncell
        idx = np.empty(int(offset[-1] + counts[-1]), dtype=np.int64)
        val = np.empty(len(idx))
        idx[:ncell] = np.arange(ncell)
        val[:ncell] = flat
        for g, kept, cells, w in groups:
            pos = np.arange(len(w)) + np.repeat(offset[g] - (np.cumsum(kept) - kept), kept)
            idx[pos] = cells
            val[pos] = w
        flat[:] = np.bincount(idx, val, minlength=ncell)


def sph_column_density(
    snapshot: ParticleSnapshot,
    resolution: int = 64,
    view: str = "xy",
    extent: float = 2.5,
    theta: float = 0.0,
    phi: float = 0.0,
) -> np.ndarray:
    """Project particles to a 2-D column-density map with an SPH kernel.

    ``view`` picks an axis-aligned plane; non-zero ``theta``/``phi``
    rotate the frame first, giving arbitrary perspectives.  Uses the
    standard cubic-spline (M4) kernel truncated at 2h, scattered onto the
    grid per particle (:func:`_scatter`).  Returns a (resolution,
    resolution) array.  Raises ``ValueError`` on non-finite particle data.
    """
    if view not in _VIEW_AXES:
        raise ValueError(f"unknown view {view!r}; valid: {sorted(_VIEW_AXES)}")
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    positions = snapshot.positions
    for name in ("positions", "masses", "smoothing"):
        if not np.isfinite(getattr(snapshot, name)).all():
            raise ValueError(f"particle {name} must be finite")
    if theta != 0.0 or phi != 0.0:
        positions = positions @ view_rotation(theta, phi).T
    ax, ay = _VIEW_AXES[view]
    xs = positions[:, ax]
    ys = positions[:, ay]
    grid = np.zeros((resolution, resolution))
    cell = 2.0 * extent / resolution
    _scatter(xs, ys, snapshot.masses, snapshot.smoothing, grid, resolution, cell, extent)
    return grid


def _positive(x) -> None:
    if not x > 0:
        raise ValueError(f"must be positive, got {x!r}")


@register_unit(category="galaxy")
class DataReader(Unit):
    """"The data file is loaded by a single Data Reader Unit" — emits one
    snapshot per iteration from a registered dataset."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (ParticleSnapshot,)
    PARAMETERS = (ParamSpec("dataset", "", "registered dataset key"),)
    REQUIRED_PERMISSIONS = ("fs.read",)

    def reset(self) -> None:
        self._index = 0

    def checkpoint(self) -> dict[str, Any]:
        return {"index": self._index}

    def restore(self, state: dict[str, Any]) -> None:
        self._index = int(state.get("index", 0))

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        key = self.get_param("dataset")
        if key not in _DATASETS:
            raise UnitError(f"DataReader: no dataset registered as {key!r}")
        frames = _DATASETS[key]
        if self._index >= len(frames):
            raise UnitError(
                f"DataReader: dataset {key!r} exhausted after {len(frames)} frames"
            )
        frame = frames[self._index]
        self._index += 1
        return [frame]


@register_unit(category="galaxy")
class ColumnDensity(Unit):
    """SPH column-density projection of one snapshot (the farmed work)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ParticleSnapshot,)
    OUTPUT_TYPES = (ImageData,)
    CODE_SIZE = 60_000
    PARAMETERS = (
        ParamSpec("resolution", 64, "output grid side", _positive),
        ParamSpec("view", "xy", "projection plane: xy | xz | yz"),
        ParamSpec("extent", 2.5, "half-width of the projected region", _positive),
        ParamSpec("theta", 0.0, "view tilt about x, radians"),
        ParamSpec("phi", 0.0, "view spin about z, radians"),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (snap,) = inputs
        try:
            grid = sph_column_density(
                snap,
                resolution=int(self.get_param("resolution")),
                view=self.get_param("view"),
                extent=float(self.get_param("extent")),
                theta=float(self.get_param("theta")),
                phi=float(self.get_param("phi")),
            )
        except ValueError as exc:
            raise UnitError(f"ColumnDensity: {exc}") from exc
        return [ImageData(pixels=grid)]

    def estimated_flops(self, input_nbytes: int) -> float:
        # ~n_particles × kernel-window work; input is ~(3+1+1)·8 B/particle.
        n_particles = max(input_nbytes / 40.0, 1.0)
        window = 25.0  # mean cells under the kernel support
        return 50.0 * n_particles * window


@register_unit(category="galaxy")
class FrameCollector(Unit):
    """The visualisation unit: collects rendered frames *in order*.

    "Each distributed Triana service returns it's processed data in
    order, allowing the frames to be animated."
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (ImageData,)

    def reset(self) -> None:
        self.frames: list[ImageData] = []

    def checkpoint(self) -> dict[str, Any]:
        return {"frames": [f.pixels.tolist() for f in self.frames]}

    def restore(self, state: dict[str, Any]) -> None:
        self.frames = [ImageData(pixels=np.asarray(p)) for p in state.get("frames", [])]

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        self.frames.append(inputs[0])
        return []

    def animation(self) -> np.ndarray:
        """Stacked (n_frames, res, res) array — the animation tensor."""
        if not self.frames:
            raise UnitError("FrameCollector: no frames collected")
        return np.stack([f.pixels for f in self.frames])


def build_galaxy_graph(
    dataset_key: str,
    resolution: int = 64,
    view: str = "xy",
    policy: str = "parallel",
) -> TaskGraph:
    """The Case-1 task graph: Reader → [Render]@policy → Collector."""
    g = TaskGraph("galaxy-formation")
    g.add_task("Reader", "DataReader", dataset=dataset_key)
    g.add_task("Render", "ColumnDensity", resolution=resolution, view=view)
    g.add_task("Collector", "FrameCollector")
    g.connect("Reader", 0, "Render", 0)
    g.connect("Render", 0, "Collector", 0)
    g.group_tasks("RenderFarm", ["Render"], policy=policy)
    return g


def build_galaxy_pipeline_graph(
    dataset_key: str,
    resolution: int = 64,
    view: str = "xy",
    render_policy: str = "parallel",
    post_policy: str = "chunked",
) -> TaskGraph:
    """Case 1 with a post-production stage: two policy groups in one run.

    Reader → [Render]@render_policy → [Blur → Edges]@post_policy →
    Collector.  The render farm produces raw column-density frames; a
    second distributed group enhances them (box blur then Sobel edges,
    both :class:`~repro.core.types.ImageData` toolbox units) before the
    in-order collector animates them.  Each group may carry a different
    distribution policy — the staged scheduler collects the render farm's
    frame *i* and immediately feeds it to the post group while frame
    *i+1* is still rendering.
    """
    g = TaskGraph("galaxy-pipeline")
    g.add_task("Reader", "DataReader", dataset=dataset_key)
    g.add_task("Render", "ColumnDensity", resolution=resolution, view=view)
    g.add_task("Blur", "BoxBlur", radius=1)
    g.add_task("Edges", "SobelEdges")
    g.add_task("Collector", "FrameCollector")
    g.connect("Reader", 0, "Render", 0)
    g.connect("Render", 0, "Blur", 0)
    g.connect("Blur", 0, "Edges", 0)
    g.connect("Edges", 0, "Collector", 0)
    g.group_tasks("RenderFarm", ["Render"], policy=render_policy)
    g.group_tasks("PostFarm", ["Blur", "Edges"], policy=post_policy)
    return g
