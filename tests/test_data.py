import numpy as np
import pytest

from cedr.data import (
    CONFUSABLE_PAIRS,
    DatasetFormatError,
    PerturbationConfig,
    PerturbationRecord,
    PointCloudSample,
    ShapeSpec,
    build_dataset,
    default_shape_specs,
    generate_sample,
    read_dataset,
    read_samples,
    sample_rng,
    stack_points,
    write_dataset,
    write_samples,
)
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.metrics import center_distance_report


def set_record_field(data: bytes, record_offset: int, value: float,
                     field: int = 0) -> bytes:
    at = record_offset + 4 * field
    return data[:at] + np.float32(value).tobytes() + data[at + 4:]


def fixed_box_spec(w=1.0, d=0.8, h=0.6):
    return ShapeSpec(0, "box", "box", (w, d, h), (w, d, h))


class TestGenerate:
    def test_unperturbed_box_lies_on_faces(self):
        w, d, h = 1.0, 0.8, 0.6
        sample = generate_sample(fixed_box_spec(w, d, h),
                                 PerturbationConfig.none(),
                                 sample_rng(0, 0, 0, 0), n_points=256)
        pts = sample.points
        # distance to the nearest of the six face planes; coordinates are
        # quantized to float32 at creation, so the residual floor is ~1e-7
        residual = np.minimum.reduce([
            np.abs(np.abs(pts[:, 0]) - w / 2),
            np.abs(np.abs(pts[:, 1]) - d / 2),
            np.abs(np.abs(pts[:, 2]) - h / 2),
        ])
        assert residual.max() < 1e-6

    def test_unperturbed_meta_is_neutral(self):
        sample = generate_sample(fixed_box_spec(), PerturbationConfig.none(),
                                 sample_rng(0, 0, 0, 0), n_points=64)
        assert sample.meta.as_tuple() == (0.0, 0.0, 1.0, 0.0, 0.0)

    def test_full_clutter_leaves_no_structure(self):
        config = PerturbationConfig(translate_frac=0.0, rotate=False,
                                    scale_range=(1.0, 1.0), clutter_fraction=1.0,
                                    occlusion_radius_frac=0.0)
        sample = generate_sample(fixed_box_spec(), config,
                                 sample_rng(1, 0, 0, 0), n_points=128)
        # no face structure survives: residuals are spread through the volume
        pts = sample.points
        residual = np.minimum.reduce([
            np.abs(np.abs(pts[:, 0]) - 0.5),
            np.abs(np.abs(pts[:, 1]) - 0.4),
            np.abs(np.abs(pts[:, 2]) - 0.3),
        ])
        assert (residual > 1e-4).mean() > 0.9
        assert sample.meta.clutter_fraction == 1.0

    def test_fixed_seed_is_bitwise_reproducible(self):
        spec = default_shape_specs()[2]
        a = generate_sample(spec, PerturbationConfig(), sample_rng(5, 2, 0, 3),
                            n_points=128)
        b = generate_sample(spec, PerturbationConfig(), sample_rng(5, 2, 0, 3),
                            n_points=128)
        assert np.array_equal(a.points, b.points)
        assert a.meta.as_tuple() == b.meta.as_tuple()

    def test_point_count_and_finiteness(self):
        for spec in default_shape_specs():
            sample = generate_sample(spec, PerturbationConfig(),
                                     sample_rng(9, spec.class_id, 0, 0),
                                     n_points=96)
            assert sample.points.shape == (96, 3)
            assert np.isfinite(sample.points).all()

    def test_perturbation_bounds(self):
        for i in range(20):
            sample = generate_sample(default_shape_specs()[0],
                                     PerturbationConfig(),
                                     sample_rng(11, 0, 0, i), n_points=64)
            assert sample.meta.shift <= 0.75 + 1e-6
            assert 0.8 - 1e-6 <= sample.meta.scale <= 1.2 + 1e-6

    def test_declared_clutter_fraction_matches_count(self):
        config = PerturbationConfig(translate_frac=0.0, rotate=False,
                                    scale_range=(1.0, 1.0),
                                    clutter_fraction=0.25,
                                    occlusion_radius_frac=0.0)
        sample = generate_sample(fixed_box_spec(), config,
                                 sample_rng(13, 0, 0, 0), n_points=200)
        assert sample.meta.clutter_fraction == pytest.approx(0.25, abs=1 / 200)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="32"):
            generate_sample(fixed_box_spec(), PerturbationConfig(),
                            sample_rng(0, 0, 0, 0), n_points=16)


class TestDataset:
    def test_split_sizes_and_class_presence(self, tiny_dataset):
        assert len(tiny_dataset.train) == 8 * 6
        assert len(tiny_dataset.test) == 8 * 4
        for split, per_class in ((tiny_dataset.train, 6), (tiny_dataset.test, 4)):
            counts = np.bincount([s.label for s in split], minlength=8)
            assert (counts == per_class).all()

    def test_determinism_across_builds(self):
        specs = default_shape_specs()[:3]
        a = build_dataset(specs, 3, 2, seed=21, n_points=48)
        b = build_dataset(specs, 3, 2, seed=21, n_points=48)
        for s1, s2 in zip(a.train + a.test, b.train + b.test):
            assert np.array_equal(s1.points, s2.points)

    def test_roundtrip_bitwise(self, tmp_path, tiny_dataset):
        base = tmp_path / "ds"
        write_dataset(tiny_dataset, base)
        loaded = read_dataset(base)
        assert loaded.class_names == tiny_dataset.class_names
        for orig, back in zip(tiny_dataset.train + tiny_dataset.test,
                              loaded.train + loaded.test):
            assert orig.label == back.label
            assert np.array_equal(orig.points, back.points)
            assert orig.meta.as_tuple() == back.meta.as_tuple()

    def test_file_bytes_are_deterministic(self, tmp_path):
        specs = default_shape_specs()
        for run in ("a", "b"):
            split = build_dataset(specs, 2, 2, seed=33, n_points=48)
            write_dataset(split, tmp_path / run)
        assert ((tmp_path / "a.train.cpcd").read_bytes()
                == (tmp_path / "b.train.cpcd").read_bytes())
        assert ((tmp_path / "a.test.cpcd").read_bytes()
                == (tmp_path / "b.test.cpcd").read_bytes())

    def test_file_size_formula(self, tmp_path, tiny_dataset):
        path = tmp_path / "sized.cpcd"
        write_samples(path, tiny_dataset.train, tiny_dataset.class_names)
        # magic, version, class count, the name table and the sample count;
        # then per sample a u16 label, a u32 point count, float32 xyz points
        # and five float32 perturbation fields
        names = tiny_dataset.class_names
        header = 4 + 2 + 2 + sum(2 + len(n.encode("utf-8")) for n in names) + 4
        body = sum(2 + 4 + 12 * len(s.points) + 5 * 4 for s in tiny_dataset.train)
        assert path.stat().st_size == header + body

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cpcd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetFormatError, match="offset 0"):
            read_samples(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.cpcd"
        path.write_bytes(b"CPCD\x07\x00\x00\x00")
        with pytest.raises(DatasetFormatError, match="offset 4"):
            read_samples(path)

    def test_truncated_file_rejected(self, tmp_path, tiny_dataset):
        path = tmp_path / "trunc.cpcd"
        write_samples(path, tiny_dataset.train[:3], tiny_dataset.class_names)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(DatasetFormatError):
            read_samples(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda b: b[:6], "truncated header at offset 4"),
        (lambda b: b[:12], "truncated class name length at offset 11"),
        (lambda b: b[:60], "truncated perturbation record at offset 48"),
        (lambda b: b + b"xyz", "3 trailing bytes at offset 118"),
        (lambda b: b[:68] + b"\x02\x00" + b[70:],
         "sample label 2 at offset 68 is outside the 2-class table"),
        (lambda b: b[:24] + np.float32(np.inf).tobytes() + b[28:],
         "sample 0 has a non-finite coordinate in its points at offset 24"),
        (lambda b: b[:90] + np.float32(np.nan).tobytes() + b[94:],
         "sample 1 has a non-finite coordinate in its points at offset 74"),
        # perturbation records: sample 0's is at offset 48, sample 1's at 98;
        # the fields are shift, rotation, scale, clutter and occlusion
        (lambda b: set_record_field(b, 98, np.nan),
         r"sample 1 has an invalid perturbation record at offset 98: .*shift=nan"),
        (lambda b: set_record_field(b, 98, -5.0, field=2),
         r"sample 1 .* offset 98: .*scale=-5\.0"),
        (lambda b: set_record_field(b, 98, 7.0, field=3),
         r"sample 1 .* offset 98: .*clutter_fraction=7\.0"),
        (lambda b: set_record_field(b, 48, -0.5),
         r"sample 0 has an invalid perturbation record at offset 48: .*shift=-0\.5"),
        (lambda b: set_record_field(b, 48, np.inf, field=1),
         r"sample 0 .* offset 48: .*rotation=inf"),
        (lambda b: set_record_field(b, 48, 0.0, field=2),
         r"sample 0 .* offset 48: .*scale=0\.0"),
        (lambda b: set_record_field(b, 48, -0.25, field=4),
         r"sample 0 .* offset 48: .*occlusion_fraction=-0\.25"),
    ])
    def test_malformed_file_names_the_offset(self, tmp_path, edit, match):
        path = tmp_path / "small.cpcd"
        samples = [PointCloudSample(np.ones((2, 3)), label) for label in (0, 1)]
        write_samples(path, samples, ["a", "b"])
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DatasetFormatError, match=match) as err:
            read_samples(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_perturbation_record_bounds_are_inclusive(self, tmp_path):
        path = tmp_path / "edge.cpcd"
        record = PerturbationRecord(shift=0.0, rotation=-3.0, scale=1e-30,
                                    clutter_fraction=1.0, occlusion_fraction=0.0)
        write_samples(path, [PointCloudSample(np.ones((2, 3)), 0, record)], ["a"])
        samples, _ = read_samples(path)
        assert samples[0].meta == PerturbationRecord(
            *(float(np.float32(v)) for v in record.as_tuple()))

    def test_stack_points_names_the_odd_sample(self):
        samples = [PointCloudSample(np.ones((n, 3)), 0) for n in (2, 2, 3)]
        with pytest.raises(ValueError, match="sample 2 has 3 points, sample 0 has 2"):
            stack_points(samples)

    def test_stack_points_rejects_an_empty_split(self):
        with pytest.raises(ValueError, match="the split is empty"):
            stack_points([])


def test_confusable_pairs_dominate_center_distances():
    """Under a random untrained encoder, the closest class centers should be
    one of the two designed confusable pairs in at least 80% of seeds.

    Measured with rotation-only perturbation: translation and clutter raise
    the class-center sampling noise above every between-class distance at any
    feasible batch size, burying the geometric structure this checks for."""
    specs = default_shape_specs()
    rotation_only = PerturbationConfig(translate_frac=0.0, scale_range=(1.0, 1.0),
                                       clutter_fraction=0.0,
                                       occlusion_radius_frac=0.0)
    hits = 0
    n_seeds = 10
    for seed in range(n_seeds):
        split = build_dataset(specs, 32, 2, seed=100 + seed, n_points=96,
                              perturb=rotation_only)
        model = PointEncoder(EncoderConfig(num_classes=8, hidden_dims=[32, 64]),
                             seed=seed)
        pts, labels = stack_points(split.train)
        emb = model.encode(pts).embeddings.values
        dist = center_distance_report(emb, labels, 8)
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if tuple(sorted((i, j))) in CONFUSABLE_PAIRS:
            hits += 1
    assert hits >= 0.8 * n_seeds
