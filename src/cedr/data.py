"""Synthetic confusable point-cloud classes and dataset file I/O.

Eight surface-sampled primitives, including two deliberately confusable
pairs: a slab-on-legs table vs. the same table with a small drawer, and a
cylinder vs. a near-cylindrical cone frustum. Perturbations emulate a
hard real-scan split: translation up to 75% of the bounding box per axis,
free yaw plus small tilt, uniform scaling, background clutter points, and
a spherical occlusion hole.

Every sample draws from its own stream, numpy's
default_rng(SeedSequence((seed, class, split, index))), so generation order
never affects the bytes. A split hashes all its keys at once, with
SeedSequence's uint32 hash written as array ops. A split is one (clouds,
points, 3) array, generated in chunks of GENERATE_CHUNK_ROWS point rows,
each in two phases. Phase 1 makes each cloud's draws in its stream's order
and writes each run of one spec's clouds with array ops over those draws.
Phase 2 perturbs the chunk with array ops: translate, rotate, scale,
clutter, the first occlusion centre. Only the occlusion's rare further
centres and its refill draw per cloud, from that cloud's own stream. A
draw whose bounds depend on the points is made in phase 1 as random() and
mapped by uniform()'s own formula in phase 2, so the bytes are those of
one cloud generated alone (`generate_sample`). Coordinates are quantized
to float32 at creation (the storage precision) and held as float64 in RAM;
a split is one `Clouds`, its points array and its labels array.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .binio import Reader

MAGIC = b"CPCD"
VERSION = 2
CLUTTER_INFLATE = 1.5   # bbox inflation for clutter points
OCCLUSION_RETRIES = 8   # occlusion centers drawn before giving up
TILT_MAX_DEG = 15.0     # bound of each tilt angle of a rotated sample
# point rows (clouds x points) generated at a time: the generators and the
# perturbation's temporaries stay small next to the split they write into
GENERATE_CHUNK_ROWS = 8192


class DatasetFormatError(ValueError):
    pass


@dataclass
class PerturbationConfig:
    translate_frac: float = 0.75     # of bbox extent, per axis
    rotate: bool = True
    scale_range: tuple = (0.8, 1.2)
    clutter_fraction: float = 0.1
    occlusion_radius_frac: float = 0.2  # of bbox diagonal

    @classmethod
    def none(cls) -> "PerturbationConfig":
        return cls(translate_frac=0.0, rotate=False, scale_range=(1.0, 1.0),
                   clutter_fraction=0.0, occlusion_radius_frac=0.0)

    @classmethod
    def moderate(cls) -> "PerturbationConfig":
        """Milder placement noise: the residual confusion then sits on the
        designed confusable pairs, where the mining mechanisms operate."""
        return cls(translate_frac=0.3, clutter_fraction=0.05,
                   occlusion_radius_frac=0.1)


@dataclass
class Clouds:
    """A split: (clouds, n, 3) float64 points and (clouds,) int labels."""
    points: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class ShapeSpec:
    class_id: int
    name: str
    primitive: str
    # scalar size parameters drawn uniformly from [low, high] elementwise;
    # meaning depends on the primitive (see the samplers below)
    size_low: tuple
    size_high: tuple


def default_shape_specs() -> list[ShapeSpec]:
    """Eight classes with the two designed confusable pairs."""
    return [
        ShapeSpec(0, "box", "box", (0.8, 0.8, 0.8), (1.2, 1.2, 1.2)),
        ShapeSpec(1, "open_box", "open_box", (0.8, 0.8, 0.5), (1.2, 1.2, 0.9)),
        ShapeSpec(2, "table", "slab_on_legs", (1.2, 0.8, 0.7), (1.6, 1.2, 0.9)),
        ShapeSpec(3, "desk", "slab_on_legs_drawer", (1.2, 0.8, 0.7), (1.6, 1.2, 0.9)),
        ShapeSpec(4, "cylinder", "cylinder", (0.3, 1.0), (0.5, 1.4)),
        ShapeSpec(5, "cone_frustum", "cone_frustum", (0.3, 1.0), (0.5, 1.4)),
        ShapeSpec(6, "sphere", "sphere", (0.5,), (0.8,)),
        ShapeSpec(7, "bowl", "hemisphere_bowl", (0.5,), (0.8,)),
    ]


CONFUSABLE_PAIRS = [(2, 3), (4, 5)]


# -- surface samplers ------------------------------------------------------
# Each sampler writes a run, consecutive clouds of one spec, into `out`
# (clouds x n x 3) from (clouds, 1) size columns: one call per cloud and draw,
# in one cloud's stream order, then array ops with one cloud's float ops. As
# Generator.uniform(lo, hi) is lo + (hi - lo) * random(), one random(2 * k)
# split in two has the bits of uniform(0, 1, k), then uniform(0, 2 pi, k).

SLAB_T = 0.06   # table slab thickness
LEG_CORNERS = np.array([(-1, -1), (-1, 1), (1, -1), (1, 1)])


def _uniform(lo, hi, u):
    """Generator.uniform(lo, hi)'s own formula on draws u of
    Generator.random(): the same bits from the same stream, for draws made
    before their bounds are known."""
    return lo + (hi - lo) * u


def _segments(counts):
    """Each row's segment and that segment's first row, as (clouds, n)
    arrays, for rows cut into consecutive segments of (clouds, s) counts."""
    seg = np.repeat(np.tile(np.arange(counts.shape[1]), len(counts)),
                    counts.ravel()).reshape(len(counts), -1)
    return seg, np.take_along_axis(counts.cumsum(axis=1) - counts, seg, axis=1)


def _segment_draws(rngs, counts):
    """Each row's segment and its two draws from one random() per cloud, in
    which each segment draws its rows' first values, then their second."""
    seg, first = _segments(counts)
    u = np.array([rng.random(2 * seg.shape[1]) for rng in rngs])
    i = first + np.arange(seg.shape[1])
    return seg, np.take_along_axis(u, i, axis=1), np.take_along_axis(
        u, i + np.take_along_axis(counts, seg, axis=1), axis=1)


def _sample_box_faces(rngs, out, w, d, h, n_faces=6):
    """Faces x-, x+, y-, y+, z-, z+ (the first n_faces) of centred boxes."""
    areas = np.concatenate([d * h, d * h, w * h, w * h, w * d, w * d],
                           axis=1)[:, :n_faces]
    n = out.shape[1]
    counts = np.array([rng.multinomial(n, p) for rng, p in
                       zip(rngs, areas / areas.sum(axis=1, keepdims=True))])
    u = np.array([rng.uniform(-0.5, 0.5, size=(n, 2)) for rng in rngs])
    face, _ = _segments(counts)
    axis, xyz = (face // 2)[..., None], np.arange(3)
    # a face's two free axes take u's two columns, in axis order
    free = np.take_along_axis(u, np.minimum(xyz - (xyz > axis), 1), axis=2)
    sign, dims = np.where(face % 2, 1.0, -1.0)[..., None], np.stack([w, d, h], 2)
    out[:] = np.where(xyz == axis, sign * dims / 2, free * dims)


def _polar(out, rad, theta, z):
    out[..., 0] = rad * np.cos(theta)
    out[..., 1] = rad * np.sin(theta)
    out[..., 2] = z


def _slab_on_legs(rngs, out, w, d, h):
    leg_r = 0.035
    n = out.shape[1]
    n_slab = int(0.55 * n)
    slab, legs = out[:, :n_slab], out[:, n_slab:]
    _sample_box_faces(rngs, slab, w, d, np.full_like(h, SLAB_T))
    slab[..., 2] += h - SLAB_T / 2
    leg_h = h - SLAB_T
    counts = np.array([rng.multinomial(n - n_slab, [0.25] * 4) for rng in rngs])
    # each leg draws its heights, then its angles; its radius is constant
    corner, t, a = _segment_draws(rngs, counts)
    _polar(legs, leg_r, _uniform(0.0, 2 * np.pi, a), (t - 0.5) * leg_h)
    legs[..., 0] += LEG_CORNERS[corner, 0] * (w / 2 - 2 * leg_r)
    legs[..., 1] += LEG_CORNERS[corner, 1] * (d / 2 - 2 * leg_r)
    legs[..., 2] += leg_h / 2


def _surface_points(primitive: str, size: np.ndarray, rngs, out: np.ndarray):
    """Write a run's surface points into `out` (clouds x n x 3): cloud j's
    from its sizes size[j], drawn from rngs[j]."""
    n = out.shape[1]
    cols = size.T[:, :, None]
    if primitive == "box":
        _sample_box_faces(rngs, out, *cols)
    elif primitive == "open_box":
        _sample_box_faces(rngs, out, *cols, n_faces=5)
    elif primitive == "slab_on_legs":
        _slab_on_legs(rngs, out, *cols)
        out[..., 2] -= cols[2] / 2
    elif primitive == "slab_on_legs_drawer":
        # a random n - k of the table's points, then a small drawer box
        # hanging under the slab: the only cue vs. table
        w, d, h = cols
        table = np.empty_like(out)
        _slab_on_legs(rngs, table, w, d, h)
        k = max(8, n // 10)
        drawer = out[:, n - k:]
        _sample_box_faces(rngs, drawer, 0.35 * w, 0.8 * d, 0.18 * h)
        drawer[..., 0] += 0.2 * w
        drawer[..., 2] += h - SLAB_T - 0.09 * h
        keep = np.array([rng.permutation(n)[:n - k] for rng in rngs])
        out[:, :n - k] = np.take_along_axis(table, keep[..., None], axis=1)
        out[..., 2] -= h / 2
    elif primitive == "cylinder":
        r, h = cols
        _frustum(rngs, out, r, r, h)
    elif primitive == "cone_frustum":
        r, h = cols
        # top radius 70% of bottom: close enough to a cylinder to confuse
        _frustum(rngs, out, r, 0.7 * r, h)
    elif primitive in ("sphere", "hemisphere_bowl"):
        v = np.array([rng.standard_normal((n, 3)) for rng in rngs])
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        if primitive == "hemisphere_bowl":
            v[..., 2] = -np.abs(v[..., 2])
        out[:] = cols[0][..., None] * v
    else:
        raise ValueError(f"unknown primitive '{primitive}'")


def _frustum(rngs, out, r_bottom, r_top, h):
    n = out.shape[1]
    lat = 2 * np.pi * (r_bottom + r_top) / 2 * h
    # libm pow, as a float64 scalar's **; array ** 2 rounds some squares apart
    sq_bot, sq_top = np.float_power(r_bottom, 2), np.float_power(r_top, 2)
    n_lat = (n * lat / (lat + np.pi * (sq_bot + sq_top))).astype(int)
    n_bot = ((n - n_lat) * sq_bot / (sq_bot + sq_top)).astype(int)
    # the lateral surface's heights and angles, then each cap's radii and angles
    part, s, a = _segment_draws(
        rngs, np.concatenate([n_lat, n_bot, n - n_lat - n_bot], axis=1))
    lateral, bottom = part == 0, part == 1
    rad = np.where(lateral, r_bottom + (r_top - r_bottom) * s,
                   np.where(bottom, r_bottom, r_top) * np.sqrt(s))
    z = np.where(lateral, (s - 0.5) * h, np.where(bottom, -h / 2, h / 2))
    _polar(out, rad, _uniform(0.0, 2 * np.pi, a), z)


# -- perturbation pipeline -------------------------------------------------

def _yaw_tilt_matrices(yaw: np.ndarray, tilt: np.ndarray) -> np.ndarray:
    """(clouds, 3, 3) rotations rz(yaw) @ rx(tilt[:, 0]) @ ry(tilt[:, 1])."""
    zero, one = np.zeros_like(yaw), np.ones_like(yaw)
    cz, sz = np.cos(yaw), np.sin(yaw)
    cx, sx = np.cos(tilt[:, 0]), np.sin(tilt[:, 0])
    cy, sy = np.cos(tilt[:, 1]), np.sin(tilt[:, 1])

    def stacked(*entries):
        return np.stack(entries, axis=1).reshape(-1, 3, 3)

    rz = stacked(cz, -sz, zero, sz, cz, zero, zero, zero, one)
    rx = stacked(one, zero, zero, zero, cx, -sx, zero, sx, cx)
    ry = stacked(cy, zero, sy, zero, one, zero, -sy, zero, cy)
    return rz @ rx @ ry


def _draw_surfaces(clouds, perturb, n_points):
    """Phase 1: each run of one spec's clouds draws its sizes and surfaces
    and writes them as array ops, then one loop over the clouds makes every
    draw a cloud's perturbation makes up to the occlusion's first centre,
    each in its stream's order. Returns the (clouds, n, 3) surfaces, the
    (clouds, m) uniform draws of the perturbation (translation, yaw, tilt,
    scale, clutter points, first occlusion centre, each present only when
    switched on) and the (clouds, k) clutter indices."""
    n_clouds = len(clouds)
    k = (int(round(perturb.clutter_fraction * n_points))
         if perturb.clutter_fraction > 0 else 0)
    n_pre = (3 * (perturb.translate_frac > 0) + 3 * perturb.rotate
             + (tuple(perturb.scale_range) != (1.0, 1.0)))
    pts = np.empty((n_clouds, n_points, 3))
    draws = np.empty((n_clouds, n_pre + 3 * k
                      + 3 * (perturb.occlusion_radius_frac > 0)))
    clutter_idx = np.empty((n_clouds, k), dtype=np.intp)
    start = 0
    for spec, run in groupby(clouds, key=lambda cloud: cloud[0]):
        rngs = [rng for _, _, rng in run]
        low = np.asarray(spec.size_low, dtype=np.float64)
        high = np.asarray(spec.size_high, dtype=np.float64)
        u = np.array([rng.random(len(low)) for rng in rngs])
        _surface_points(spec.primitive, _uniform(low, high, u), rngs,
                        pts[start:start + len(rngs)])
        start += len(rngs)
    for j, (_, _, rng) in enumerate(clouds):
        if k:
            rng.random(out=draws[j, :n_pre])
            clutter_idx[j] = rng.permutation(n_points)[:k]
            rng.random(out=draws[j, n_pre:])
        else:
            rng.random(out=draws[j])
    return pts, draws, clutter_idx


def _bounds(pts):
    """Each cloud's per-axis min and max, reduced along contiguous rows."""
    by_axis = np.ascontiguousarray(pts.transpose(0, 2, 1))
    return by_axis.min(axis=2), by_axis.max(axis=2)


def _outside(pts, center, radius):
    """np.linalg.norm(pts - center, axis=-1) > radius, with the squares
    added in norm's order, one axis at a time."""
    d = pts - center
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2]) > radius


def _perturb(pts, draws, clutter_idx, clouds, perturb, split):
    """Phase 2, array ops over the (clouds, n, 3) surfaces: translate,
    rotate, scale, clutter and the first occlusion centre. Only a cloud that
    the occlusion touched goes on alone, drawing from its own stream."""
    n_clouds, n, _ = pts.shape
    col = 0
    if perturb.translate_frac > 0:
        lo, hi = _bounds(pts)
        t = perturb.translate_frac
        pts = pts + (_uniform(-t, t, draws[:, :3]) * (hi - lo))[:, None]
        col = 3
    if perturb.rotate:
        yaw = _uniform(0.0, 2 * np.pi, draws[:, col])
        tilt = np.deg2rad(_uniform(-TILT_MAX_DEG, TILT_MAX_DEG,
                                   draws[:, col + 1:col + 3]))
        pts = pts @ _yaw_tilt_matrices(yaw, tilt).transpose(0, 2, 1)
        col += 3
    s_lo, s_hi = perturb.scale_range
    if (s_lo, s_hi) != (1.0, 1.0):
        pts = pts * _uniform(s_lo, s_hi, draws[:, col])[:, None, None]
        col += 1
    k = clutter_idx.shape[1]
    if k:
        lo, hi = _bounds(pts)
        center, half = (lo + hi) / 2, (hi - lo) / 2
        half = half * CLUTTER_INFLATE
        u = draws[:, col:col + 3 * k].reshape(n_clouds, k, 3)
        pts[np.arange(n_clouds)[:, None], clutter_idx] = _uniform(
            (center - half)[:, None], (center + half)[:, None], u)
        col += 3 * k
    if perturb.occlusion_radius_frac > 0:
        lo, hi = _bounds(pts)
        diag = (hi - lo)[:, None]
        # np.linalg.norm of one vector is the square root of its BLAS dot,
        # and a stacked (1 x 3) @ (3 x 1) matmul takes that dot; a sum over
        # the axis would round some radii otherwise
        radius = perturb.occlusion_radius_frac * np.sqrt(
            diag @ diag.transpose(0, 2, 1))[:, 0]
        survive = _outside(pts, _uniform(lo, hi, draws[:, col:])[:, None],
                           radius)
        kept = survive.sum(axis=1)
        # each cloud's surviving rows first, in order, then its refill
        order = np.argsort(~survive, axis=1, kind="stable")
        for j in np.flatnonzero(kept < n):
            spec, index, rng = clouds[j]
            attempts = 1
            while not kept[j]:
                if attempts == OCCLUSION_RETRIES:
                    where = f"{split} cloud {index}".lstrip()
                    raise RuntimeError(
                        f"occlusion removed every point of {where} of class "
                        f"{spec.class_id} ({spec.name}) in {OCCLUSION_RETRIES} "
                        "attempts")
                center = _uniform(lo[j], hi[j], rng.random(3))
                survive[j] = _outside(pts[j], center, radius[j])
                kept[j] = survive[j].sum()
                order[j] = np.argsort(~survive[j], kind="stable")
                attempts += 1
            if kept[j] < n:
                order[j, kept[j]:] = order[j, rng.integers(0, kept[j],
                                                          size=n - kept[j])]
        pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    return pts.astype(np.float32).astype(np.float64)


def _check_point_count(n_points: int):
    if n_points < 32:
        raise ValueError("need at least 32 points per sample")


def _generate_clouds(clouds: list[tuple[ShapeSpec, int, np.random.Generator]],
                    perturb: PerturbationConfig, n_points: int = 256,
                    split: str = "") -> np.ndarray:
    """(len(clouds), n_points, 3) perturbed clouds, one per (spec, index,
    rng). Each is drawn from its own stream alone, so its bytes do not depend
    on the other clouds; the split and the index name it in errors."""
    pts, draws, clutter_idx = _draw_surfaces(clouds, perturb, n_points)
    return _perturb(pts, draws, clutter_idx, clouds, perturb, split)


def generate_sample(spec: ShapeSpec, perturb: PerturbationConfig,
                    rng: np.random.Generator, n_points: int = 256) -> np.ndarray:
    """One cloud's points, drawn by the code that draws a whole split."""
    _check_point_count(n_points)
    return _generate_clouds([(spec, 0, rng)], perturb, n_points)[0]


# -- dataset assembly ------------------------------------------------------

@dataclass
class DatasetSplit:
    train: Clouds
    test: Clouds
    class_names: list[str]


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(const, mult):
    """SeedSequence's hashmix over uint32 arrays: each call XORs in the
    running constant, steps it by mult and multiplies by the new one."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & MASK32
        value *= np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    out = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return out ^ out >> 16


def _stream_states(seed: int, keys) -> np.ndarray:
    """(rows, 4) uint64: row j is SeedSequence((seed, *keys[j]))
    .generate_state(4, np.uint64), for (rows, 3) keys (class id, split tag,
    index), hashed as array ops over all the rows at once."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    keys = np.array(keys).reshape(-1, 3)
    bad = (keys < 0) | (keys >= 2**32)
    if bad.any():
        raise ValueError(f"class id, split tag or index {keys[bad][0]} is not "
                         "in 0..2**32 - 1, the range of one seed word")
    # the entropy words: the seed's 32-bit words, least significant first
    # ([0] for 0), then the key's three
    seed_words = [seed >> shift & MASK32
                  for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = np.empty((len(keys), len(seed_words) + 3), np.uint32)
    words[:, :len(seed_words)] = seed_words
    words[:, len(seed_words):] = keys
    # mix_entropy: a pool of 4 words, each mixed into the others, then each
    # further word mixed into every pool word
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian
    hashmix = _hasher(INIT_B, MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StreamState(ISeedSequence):
    """One row of `_stream_states`, as the seed of a PCG64, which asks for
    exactly generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream state is 4 uint64 words, not "
                             f"{n_words} of {np.dtype(dtype)}")
        return self.state


def _stream(state: np.ndarray) -> np.random.Generator:
    """default_rng(SeedSequence(key)) for the key `state` was hashed from."""
    return np.random.Generator(np.random.PCG64(_StreamState(state)))


def build_dataset(specs: list[ShapeSpec], n_train: int, n_test: int,
                  seed: int, perturb: PerturbationConfig | None = None,
                  n_points: int = 256) -> DatasetSplit:
    if n_train < 2 or n_test < 2:
        raise ValueError("need at least 2 samples per class per split")
    _check_point_count(n_points)
    perturb = perturb or PerturbationConfig()
    step = max(1, GENERATE_CHUNK_ROWS // n_points)
    splits = []
    for tag, (name, count) in enumerate((("train", n_train), ("test", n_test))):
        keys = [(spec, i) for spec in specs for i in range(count)]
        states = _stream_states(seed, [(spec.class_id, tag, i)
                                       for spec, i in keys])
        pts = np.empty((len(keys), n_points, 3))
        for start in range(0, len(keys), step):
            # only one chunk's generators are alive at a time
            chunk = slice(start, start + step)
            clouds = [(spec, i, _stream(state))
                      for (spec, i), state in zip(keys[chunk], states[chunk])]
            pts[chunk] = _generate_clouds(clouds, perturb, n_points, name)
        splits.append(Clouds(pts, np.array([spec.class_id for spec, _ in keys],
                                            dtype=int)))
    return DatasetSplit(*splits, [s.name for s in specs])


# -- file format -----------------------------------------------------------

def write_samples(path, clouds: Clouds, class_names: list[str]):
    """Magic, version, the class-name table, u32 sample and point counts, the
    u16 labels, then every sample's float32 xyz points."""
    pts, labels = stack_points(clouds)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HH", VERSION, len(class_names)))
        for name in class_names:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
        f.write(struct.pack("<II", *pts.shape[:2]))
        f.write(labels.astype("<u2").tobytes())
        f.write(pts.astype("<f4").tobytes())


# a flipped byte can leave a float32 signalling NaN in the points; its cast to
# float64 then warns, and the NaN is left to the finiteness check below
@np.errstate(invalid="ignore")
def read_samples(path) -> tuple[Clouds, list[str]]:
    r = Reader(path, DatasetFormatError)
    (magic,) = r.fields("4s", "magic")
    if magic != MAGIC:
        raise r.error(f"bad magic at offset 0: {magic!r}")
    version, n_classes = r.fields("HH", "header")
    if version != VERSION:
        raise r.error(f"unsupported version {version} at offset 4")
    names = []
    for _ in range(n_classes):
        (ln,) = r.fields("H", "class name length")
        names.append(r.text(ln, "class name"))
    count, n = r.fields("II", "sample and point counts")
    labels_start = r.off
    if not count or not n:
        raise r.error(f"sample and point counts {count} and {n} at offset "
                      f"{labels_start - 8}: the split holds no point")
    labels = r.array("<u2", (count,), "labels").astype(int)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        raise r.error(f"sample label {labels[bad[0]]} at offset "
                      f"{labels_start + 2 * bad[0]} is outside the "
                      f"{n_classes}-class table")
    pts_start = r.off
    pts = r.array("<f4", (count, n, 3), "points")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=(1, 2)))
    if bad.size:
        raise r.error(f"sample {bad[0]} has a non-finite coordinate in its "
                      f"points at offset {pts_start + 12 * n * bad[0]}")
    r.expect_end()
    return Clouds(pts, labels), names


def dataset_paths(base) -> tuple[Path, Path]:
    base = Path(base)
    stem = base.name[:-5] if base.name.endswith(".cpcd") else base.name
    return base.with_name(stem + ".train.cpcd"), base.with_name(stem + ".test.cpcd")


def write_dataset(split: DatasetSplit, base) -> tuple[Path, Path]:
    train_path, test_path = dataset_paths(base)
    write_samples(train_path, split.train, split.class_names)
    write_samples(test_path, split.test, split.class_names)
    return train_path, test_path


def read_dataset(base) -> DatasetSplit:
    train_path, test_path = dataset_paths(base)
    train, names = read_samples(train_path)
    test, names_test = read_samples(test_path)
    if names != names_test:
        raise DatasetFormatError(f"{train_path} and {test_path} disagree "
                                 "on the class table")
    return DatasetSplit(train, test, names)


def stack_points(clouds: Clouds) -> tuple[np.ndarray, np.ndarray]:
    """The split's own (clouds, n, 3) points and labels, not copies."""
    if not len(clouds):
        raise ValueError("no samples to stack: the split is empty")
    if clouds.points.ndim != 3 or clouds.points.shape[2] != 3:
        raise ValueError(f"points of shape {clouds.points.shape} are not "
                         "(clouds, n, 3)")
    if len(clouds.labels) != len(clouds):
        raise ValueError(f"{len(clouds.labels)} labels for {len(clouds)} clouds")
    return clouds.points, clouds.labels
