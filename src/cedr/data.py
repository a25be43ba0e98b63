"""Synthetic confusable point-cloud classes and dataset file I/O.

Eight surface-sampled primitives, including two deliberately confusable
pairs: a slab-on-legs table vs. the same table with a small drawer, and a
cylinder vs. a near-cylindrical cone frustum. Perturbations emulate a
hard real-scan split: translation up to 75% of the bounding box per axis,
free yaw plus small tilt, uniform scaling, background clutter points, and
a spherical occlusion hole.

Every sample draws its own generator from (seed, class, split, index), so
generation order never affects the bytes. Coordinates are quantized to
float32 at creation (the storage precision) and held as float64 in RAM.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import Reader

MAGIC = b"CPCD"
VERSION = 2
CLUTTER_INFLATE = 1.5   # bbox inflation for clutter points
OCCLUSION_RETRIES = 8   # occlusion centers drawn before giving up
TILT_MAX_DEG = 15.0     # bound of each tilt angle of a rotated sample


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
class PointCloudSample:
    points: np.ndarray              # n x 3 float64
    label: int


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

def _sample_box_faces(rng, n, w, d, h, faces=("x-", "x+", "y-", "y+", "z-", "z+")):
    areas = {"x-": d * h, "x+": d * h, "y-": w * h, "y+": w * h,
             "z-": w * d, "z+": w * d}
    weights = np.array([areas[f] for f in faces])
    counts = rng.multinomial(n, weights / weights.sum())
    pts = []
    for face, k in zip(faces, counts):
        u = rng.uniform(-0.5, 0.5, size=(k, 2))
        axis, sign = face[0], 1.0 if face[1] == "+" else -1.0
        if axis == "x":
            p = np.column_stack([np.full(k, sign * w / 2), u[:, 0] * d, u[:, 1] * h])
        elif axis == "y":
            p = np.column_stack([u[:, 0] * w, np.full(k, sign * d / 2), u[:, 1] * h])
        else:
            p = np.column_stack([u[:, 0] * w, u[:, 1] * d, np.full(k, sign * h / 2)])
        pts.append(p)
    return np.concatenate(pts)


def _sample_lateral(rng, n, r_bottom, r_top, h):
    """Lateral surface of a frustum from z=-h/2 to z=h/2."""
    t = rng.uniform(0.0, 1.0, n)
    r = r_bottom + (r_top - r_bottom) * t
    theta = rng.uniform(0.0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), (t - 0.5) * h])


def _sample_disk(rng, n, r, z):
    rad = r * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2 * np.pi, n)
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), np.full(n, z)])


def _surface_points(primitive: str, size: np.ndarray, rng, n: int) -> np.ndarray:
    if primitive == "box":
        return _sample_box_faces(rng, n, *size)
    if primitive == "open_box":
        return _sample_box_faces(rng, n, *size,
                                 faces=("x-", "x+", "y-", "y+", "z-"))
    if primitive in ("slab_on_legs", "slab_on_legs_drawer"):
        w, d, h = size
        slab_t = 0.06
        leg_r = 0.035
        n_slab = int(0.55 * n)
        n_legs = n - n_slab
        slab = _sample_box_faces(rng, n_slab, w, d, slab_t)
        slab[:, 2] += h - slab_t / 2
        leg_h = h - slab_t
        legs = []
        counts = rng.multinomial(n_legs, np.full(4, 0.25))
        for (sx, sy), k in zip([(-1, -1), (-1, 1), (1, -1), (1, 1)], counts):
            leg = _sample_lateral(rng, k, leg_r, leg_r, leg_h)
            leg[:, 0] += sx * (w / 2 - 2 * leg_r)
            leg[:, 1] += sy * (d / 2 - 2 * leg_r)
            leg[:, 2] += leg_h / 2
            legs.append(leg)
        pts = np.concatenate([slab] + legs)
        if primitive == "slab_on_legs_drawer":
            # small drawer box hanging under the slab: the only cue vs. table
            k = max(8, n // 10)
            drawer = _sample_box_faces(rng, k, 0.35 * w, 0.8 * d, 0.18 * h)
            drawer[:, 0] += 0.2 * w
            drawer[:, 2] += h - slab_t - 0.09 * h
            keep = rng.permutation(len(pts))[:len(pts) - k]
            pts = np.concatenate([pts[keep], drawer])
        pts[:, 2] -= h / 2
        return pts
    if primitive == "cylinder":
        r, h = size
        return _frustum(rng, n, r, r, h)
    if primitive == "cone_frustum":
        r, h = size
        # top radius 70% of bottom: close enough to a cylinder to confuse
        return _frustum(rng, n, r, 0.7 * r, h)
    if primitive == "sphere":
        (r,) = size
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return r * v
    if primitive == "hemisphere_bowl":
        (r,) = size
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[:, 2] = -np.abs(v[:, 2])
        return r * v
    raise ValueError(f"unknown primitive '{primitive}'")


def _frustum(rng, n, r_bottom, r_top, h):
    lat = 2 * np.pi * (r_bottom + r_top) / 2 * h
    caps = np.pi * (r_bottom**2 + r_top**2)
    n_lat = int(n * lat / (lat + caps))
    n_bot = int((n - n_lat) * r_bottom**2 / (r_bottom**2 + r_top**2))
    n_top = n - n_lat - n_bot
    return np.concatenate([
        _sample_lateral(rng, n_lat, r_bottom, r_top, h),
        _sample_disk(rng, n_bot, r_bottom, -h / 2),
        _sample_disk(rng, n_top, r_top, h / 2),
    ])


# -- perturbation pipeline -------------------------------------------------

def _yaw_tilt_matrix(rng) -> np.ndarray:
    yaw = rng.uniform(0.0, 2 * np.pi)
    tilt = np.deg2rad(rng.uniform(-TILT_MAX_DEG, TILT_MAX_DEG, size=2))
    cz, sz = np.cos(yaw), np.sin(yaw)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
    cx, sx = np.cos(tilt[0]), np.sin(tilt[0])
    rx = np.array([[1.0, 0, 0], [0, cx, -sx], [0, sx, cx]])
    cy, sy = np.cos(tilt[1]), np.sin(tilt[1])
    ry = np.array([[cy, 0, sy], [0, 1.0, 0], [-sy, 0, cy]])
    return rz @ rx @ ry


def generate_sample(spec: ShapeSpec, perturb: PerturbationConfig,
                    rng: np.random.Generator, n_points: int = 256) -> PointCloudSample:
    if n_points < 32:
        raise ValueError("need at least 32 points per sample")
    size = rng.uniform(np.asarray(spec.size_low), np.asarray(spec.size_high))
    pts = _surface_points(spec.primitive, size, rng, n_points)

    if perturb.translate_frac > 0:
        extent = pts.max(axis=0) - pts.min(axis=0)
        pts = pts + rng.uniform(-perturb.translate_frac, perturb.translate_frac,
                                3) * extent
    if perturb.rotate:
        pts = pts @ _yaw_tilt_matrix(rng).T
    lo, hi = perturb.scale_range
    if (lo, hi) != (1.0, 1.0):
        pts = pts * rng.uniform(lo, hi)
    if perturb.clutter_fraction > 0:
        k = int(round(perturb.clutter_fraction * n_points))
        if k > 0:
            bb_lo, bb_hi = pts.min(axis=0), pts.max(axis=0)
            center, half = (bb_lo + bb_hi) / 2, (bb_hi - bb_lo) / 2
            half = half * CLUTTER_INFLATE
            idx = rng.permutation(n_points)[:k]
            pts[idx] = rng.uniform(center - half, center + half, size=(k, 3))
    if perturb.occlusion_radius_frac > 0:
        bb_lo, bb_hi = pts.min(axis=0), pts.max(axis=0)
        radius = perturb.occlusion_radius_frac * float(np.linalg.norm(bb_hi - bb_lo))
        for attempt in range(OCCLUSION_RETRIES):
            center = rng.uniform(bb_lo, bb_hi)
            survive = np.linalg.norm(pts - center, axis=1) > radius
            if survive.any():
                break
        else:
            raise RuntimeError(
                f"occlusion removed every point in {OCCLUSION_RETRIES} attempts"
            )
        removed = int(n_points - survive.sum())
        if removed:
            kept = pts[survive]
            refill = kept[rng.integers(0, len(kept), size=removed)]
            pts = np.concatenate([kept, refill])

    pts = pts.astype(np.float32).astype(np.float64)
    return PointCloudSample(pts, spec.class_id)


# -- dataset assembly ------------------------------------------------------

@dataclass
class DatasetSplit:
    train: list
    test: list
    class_names: list[str]


def sample_rng(seed: int, class_id: int, split_tag: int, index: int):
    return np.random.default_rng(np.random.SeedSequence((seed, class_id, split_tag, index)))


def build_dataset(specs: list[ShapeSpec], n_train: int, n_test: int,
                  seed: int, perturb: PerturbationConfig | None = None,
                  n_points: int = 256) -> DatasetSplit:
    if n_train < 2 or n_test < 2:
        raise ValueError("need at least 2 samples per class per split")
    perturb = perturb or PerturbationConfig()
    train, test = [], []
    for spec in specs:
        for i in range(n_train):
            train.append(generate_sample(spec, perturb,
                                         sample_rng(seed, spec.class_id, 0, i),
                                         n_points))
        for i in range(n_test):
            test.append(generate_sample(spec, perturb,
                                        sample_rng(seed, spec.class_id, 1, i),
                                        n_points))
    return DatasetSplit(train, test, [s.name for s in specs])


# -- file format -----------------------------------------------------------

def write_samples(path, samples: list[PointCloudSample], class_names: list[str]):
    """Magic, version, the class-name table, u32 sample and point counts, the
    u16 labels, then every sample's float32 xyz points: one file holds clouds
    of one size."""
    pts, labels = stack_points(samples)
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
def read_samples(path) -> tuple[list[PointCloudSample], list[str]]:
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
    return [PointCloudSample(p, label)
            for p, label in zip(pts, labels.tolist())], names


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


def stack_points(samples: list[PointCloudSample]) -> tuple[np.ndarray, np.ndarray]:
    """(batch, n, 3) points and labels for equally sized samples."""
    if not samples:
        raise ValueError("no samples to stack: the split is empty")
    for i, s in enumerate(samples):
        if len(s.points) != len(samples[0].points):
            raise ValueError(f"sample {i} has {len(s.points)} points, "
                             f"sample 0 has {len(samples[0].points)}")
    pts = np.stack([s.points for s in samples])
    labels = np.array([s.label for s in samples], dtype=int)
    return pts, labels
