from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr import data
from cedr.data import (
    CONFUSABLE_PAIRS,
    Clouds,
    DatasetFormatError,
    PerturbationConfig,
    ShapeSpec,
    _surface_points,
    build_dataset,
    default_shape_specs,
    generate_sample,
    read_dataset,
    read_samples,
    stack_points,
    write_dataset,
    write_samples,
)
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.metrics import center_distance_report


def numpy_rng(seed, class_id, tag, index):
    """numpy's own generator for a cloud's key: the stream that
    build_dataset's array hash must reproduce."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, class_id, tag, index)))


def fixed_box_spec(w=1.0, d=0.8, h=0.6):
    return ShapeSpec(0, "box", "box", (w, d, h), (w, d, h))


def box_face_residual(pts, w=1.0, d=0.8, h=0.6):
    """Each point's distance to the nearest of the six face planes of a
    centred w x d x h box."""
    return np.minimum.reduce([
        np.abs(np.abs(pts[:, 0]) - w / 2),
        np.abs(np.abs(pts[:, 1]) - d / 2),
        np.abs(np.abs(pts[:, 2]) - h / 2),
    ])


class TestGenerate:
    def test_unperturbed_box_lies_on_faces(self):
        w, d, h = 1.0, 0.8, 0.6
        pts = generate_sample(fixed_box_spec(w, d, h), PerturbationConfig.none(),
                              numpy_rng(0, 0, 0, 0), n_points=256)
        # coordinates are quantized to float32 at creation, so the residual
        # floor is ~1e-7
        assert box_face_residual(pts, w, d, h).max() < 1e-6

    def test_unperturbed_sample_is_the_surface_draw(self):
        """The none preset draws nothing after the surface: the points are
        the sampler's, quantized to float32."""
        rng = numpy_rng(0, 0, 0, 0)
        spec = fixed_box_spec()
        size = rng.uniform(np.asarray(spec.size_low), np.asarray(spec.size_high))
        drawn = np.empty((1, 64, 3))
        _surface_points(spec.primitive, size[None], [rng], drawn)
        pts = generate_sample(spec, PerturbationConfig.none(),
                              numpy_rng(0, 0, 0, 0), n_points=64)
        assert np.array_equal(pts, drawn[0].astype(np.float32).astype(np.float64))

    def test_full_clutter_leaves_no_structure(self):
        config = PerturbationConfig(translate_frac=0.0, rotate=False,
                                    scale_range=(1.0, 1.0), clutter_fraction=1.0,
                                    occlusion_radius_frac=0.0)
        pts = generate_sample(fixed_box_spec(), config,
                              numpy_rng(1, 0, 0, 0), n_points=128)
        # no face structure survives: residuals are spread through the volume
        assert (box_face_residual(pts) > 1e-4).mean() > 0.9

    def test_fixed_seed_is_bitwise_reproducible(self):
        spec = default_shape_specs()[2]
        a = generate_sample(spec, PerturbationConfig(), numpy_rng(5, 2, 0, 3),
                            n_points=128)
        b = generate_sample(spec, PerturbationConfig(), numpy_rng(5, 2, 0, 3),
                            n_points=128)
        assert np.array_equal(a, b)

    def test_point_count_and_finiteness(self):
        for spec in default_shape_specs():
            pts = generate_sample(spec, PerturbationConfig(),
                                  numpy_rng(9, spec.class_id, 0, 0), n_points=96)
            assert pts.shape == (96, 3)
            assert np.isfinite(pts).all()

    def test_perturbation_bounds(self):
        """A centred box shifted by up to translate_frac of its extent per
        axis: the bounding-box centre stays inside that bound, and reaches
        past half of it in some sample."""
        config = PerturbationConfig(translate_frac=0.75, rotate=False,
                                    scale_range=(1.0, 1.0), clutter_fraction=0.0,
                                    occlusion_radius_frac=0.0)
        reach = []
        for i in range(20):
            pts = generate_sample(fixed_box_spec(), config,
                                  numpy_rng(11, 0, 0, i), n_points=64)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            shift = np.abs((lo + hi) / 2) / (hi - lo)
            assert (shift <= 0.75 + 1e-6).all()
            reach.append(shift.max())
        assert max(reach) > 0.375

    @pytest.mark.parametrize("s", [0.8, 1.2])
    def test_fixed_scale_puts_the_faces_at_scaled_offsets(self, s):
        config = PerturbationConfig(translate_frac=0.0, rotate=False,
                                    scale_range=(s, s), clutter_fraction=0.0,
                                    occlusion_radius_frac=0.0)
        pts = generate_sample(fixed_box_spec(), config,
                              numpy_rng(12, 0, 0, 0), n_points=128)
        w, d, h = s * 1.0, s * 0.8, s * 0.6
        assert box_face_residual(pts, w, d, h).max() < 1e-6
        assert np.abs(pts).max(axis=0) == pytest.approx(
            [w / 2, d / 2, h / 2], abs=1e-6)

    def test_declared_clutter_fraction_matches_count(self):
        """Clutter replaces round(fraction * n) points, drawn through the
        inflated bounding box, so that many points leave the box faces."""
        config = PerturbationConfig(translate_frac=0.0, rotate=False,
                                    scale_range=(1.0, 1.0),
                                    clutter_fraction=0.25,
                                    occlusion_radius_frac=0.0)
        pts = generate_sample(fixed_box_spec(), config,
                              numpy_rng(13, 0, 0, 0), n_points=200)
        assert (box_face_residual(pts) > 1e-4).sum() == 50

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="32"):
            generate_sample(fixed_box_spec(), PerturbationConfig(),
                            numpy_rng(0, 0, 0, 0), n_points=16)

    @pytest.mark.parametrize("n_points", [31, 0, -4])
    def test_too_few_points_rejected_before_a_split_is_built(self, n_points):
        with pytest.raises(ValueError, match="at least 32 points"):
            build_dataset(default_shape_specs()[:2], 2, 2, seed=0,
                          n_points=n_points)

    def test_occlusion_that_removes_every_point_names_the_cloud(self):
        """A hole twice the bounding-box diagonal removes every point from
        any centre in the box, so each of the OCCLUSION_RETRIES centres fails."""
        hole = PerturbationConfig(occlusion_radius_frac=2.0)
        specs = default_shape_specs()[:2]
        with pytest.raises(RuntimeError,
                           match=r"every point of train cloud 0 of class 0 \(box\) "
                                 r"in 8 attempts"):
            build_dataset(specs, 2, 2, seed=0, perturb=hole, n_points=32)
        with pytest.raises(RuntimeError,
                           match=r"every point of cloud 0 of class 1 \(open_box\)"):
            generate_sample(specs[1], hole, numpy_rng(0, 1, 1, 3), n_points=32)


def surface_run(spec, n, indices=range(5), seed=3, sampler=None):
    """A run of one spec's clouds, each drawing its size, then its surface,
    from its own stream, as phase 1 of generation does; with a sampler, the
    clouds one at a time through it."""
    rngs = [numpy_rng(seed, spec.class_id, 0, i) for i in indices]
    size = np.array([rng.uniform(np.asarray(spec.size_low),
                                 np.asarray(spec.size_high)) for rng in rngs])
    if sampler:
        return np.array([sampler(spec.primitive, s, rng, n)
                         for s, rng in zip(size, rngs)])
    out = np.empty((len(rngs), n, 3))
    _surface_points(spec.primitive, size, rngs, out)
    return out


# -- the samplers one cloud and one piece at a time, as loops: the reference
# for the run samplers' draw order and float ops

def ref_polar(out, rad, theta, z):
    out[:, 0] = rad * np.cos(theta)
    out[:, 1] = rad * np.sin(theta)
    out[:, 2] = z


def ref_pieces(u, counts):
    """Each piece's rows, then its first and second draws: a piece of k rows
    takes the next 2k values of u."""
    start = 0
    for k in counts:
        yield (slice(start, start + k), u[2 * start:2 * start + k],
               u[2 * start + k:2 * (start + k)])
        start += k


def ref_box_faces(rng, out, w, d, h, n_faces=6):
    dims = np.array([w, d, h])
    areas = np.array([d * h, d * h, w * h, w * h, w * d, w * d][:n_faces])
    counts = rng.multinomial(len(out), areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(len(out), 2))
    start = 0
    for face, k in enumerate(counts):
        axis, rows = face // 2, slice(start, start + k)
        free = [a for a in range(3) if a != axis]
        out[rows, axis] = (1.0 if face % 2 else -1.0) * dims[axis] / 2
        out[rows, free] = u[rows] * dims[free]
        start += k


def ref_slab_on_legs(rng, out, w, d, h):
    leg_r, n = 0.035, len(out)
    n_slab = int(0.55 * n)
    slab, legs = out[:n_slab], out[n_slab:]
    ref_box_faces(rng, slab, w, d, data.SLAB_T)
    slab[:, 2] += h - data.SLAB_T / 2
    leg_h = h - data.SLAB_T
    counts = rng.multinomial(n - n_slab, np.full(4, 0.25))
    corners = ((-1, -1), (-1, 1), (1, -1), (1, 1))
    for (cx, cy), (rows, t, a) in zip(corners, ref_pieces(
            rng.random(2 * (n - n_slab)), counts)):
        ref_polar(legs[rows], leg_r, 2 * np.pi * a, (t - 0.5) * leg_h)
        legs[rows, 0] += cx * (w / 2 - 2 * leg_r)
        legs[rows, 1] += cy * (d / 2 - 2 * leg_r)
        legs[rows, 2] += leg_h / 2


def ref_frustum(rng, out, r_bottom, r_top, h):
    n = len(out)
    lat = 2 * np.pi * (r_bottom + r_top) / 2 * h
    caps = np.pi * (r_bottom**2 + r_top**2)
    n_lat = int(n * lat / (lat + caps))
    n_bot = int((n - n_lat) * r_bottom**2 / (r_bottom**2 + r_top**2))
    (side, t, a), (bot, s_b, a_b), (top, s_t, a_t) = ref_pieces(
        rng.random(2 * n), (n_lat, n_bot, n - n_lat - n_bot))
    ref_polar(out[side], r_bottom + (r_top - r_bottom) * t, 2 * np.pi * a,
              (t - 0.5) * h)
    ref_polar(out[bot], r_bottom * np.sqrt(s_b), 2 * np.pi * a_b, -h / 2)
    ref_polar(out[top], r_top * np.sqrt(s_t), 2 * np.pi * a_t, h / 2)


def reference_surface(primitive, size, rng, n):
    """One cloud's surface points, from its (k,) float64 sizes."""
    out = np.empty((n, 3))
    if primitive in ("box", "open_box"):
        ref_box_faces(rng, out, *size, n_faces=6 if primitive == "box" else 5)
    elif primitive == "slab_on_legs":
        ref_slab_on_legs(rng, out, *size)
        out[:, 2] -= size[2] / 2
    elif primitive == "slab_on_legs_drawer":
        w, d, h = size
        table = np.empty_like(out)
        ref_slab_on_legs(rng, table, w, d, h)
        k = max(8, n // 10)
        ref_box_faces(rng, out[n - k:], 0.35 * w, 0.8 * d, 0.18 * h)
        out[n - k:, 0] += 0.2 * w
        out[n - k:, 2] += h - data.SLAB_T - 0.09 * h
        out[:n - k] = table[rng.permutation(n)[:n - k]]
        out[:, 2] -= h / 2
    elif primitive in ("cylinder", "cone_frustum"):
        r, h = size
        ref_frustum(rng, out, r, r if primitive == "cylinder" else 0.7 * r, h)
    else:
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if primitive == "hemisphere_bowl":
            v[:, 2] = -np.abs(v[:, 2])
        out[:] = size[0] * v
    return out


class TestSurfaceRuns:
    """The samplers write a run of one spec's clouds as array ops; each
    cloud's points are those of a run of that cloud alone, and those of the
    loop reference above."""

    @pytest.mark.parametrize("n", [32, 33, 257])
    @pytest.mark.parametrize("spec", default_shape_specs(), ids=lambda s: s.name)
    def test_run_equals_each_cloud_alone(self, spec, n):
        run = surface_run(spec, n)
        for i, pts in enumerate(run):
            assert np.array_equal(pts, surface_run(spec, n, [i])[0]), i
        assert np.array_equal(run, surface_run(spec, n,
                                               sampler=reference_surface))

    @pytest.mark.parametrize("dims, axis", [((1e-9, 0.8, 0.6), 0),
                                            ((1.0, 0.8, 1e-9), 2)],
                             ids=["thin-x", "thin-z"])
    def test_box_with_a_thin_side_draws_no_row_on_its_thin_faces(self, dims,
                                                                  axis):
        """The four faces along the thin side get no rows, first or last of
        the six: every point lies on one of the two large faces."""
        spec = ShapeSpec(0, "thin", "box", dims, dims)
        pts = surface_run(spec, 64)
        assert np.array_equal(pts, surface_run(spec, 64,
                                               sampler=reference_surface))
        half = np.array(dims) / 2
        assert (np.abs(pts[..., axis]) == half[axis]).all()
        assert (np.abs(pts) <= half).all()
        assert box_face_residual(pts.reshape(-1, 3), *dims).max() == 0.0

    def test_frustum_squares_each_radius_as_a_scalar_does(self):
        """At this radius libm's pow, which a float64 scalar's ** calls,
        and an array's ** 2, which squares, round r ** 2 one ulp apart, and
        the bottom cap of 138 points gets 20 rows from the one and 21 from
        the other (found by a search over radii and heights)."""
        r, h = 0.46681494615961533, 1.0990865671791776
        spec = ShapeSpec(4, "cylinder", "cylinder", (r, h), (r, h))
        pts = surface_run(spec, 138, indices=[0])
        assert (pts[..., 2] == -h / 2).sum() == 20
        assert np.array_equal(pts, surface_run(spec, 138, indices=[0],
                                               sampler=reference_surface))

    @pytest.mark.parametrize("primitive, r, h, top_rows", [
        ("cone_frustum", 1e-20, 1.0, 0),
        ("cylinder", 1e-3, 10.0, 1),
    ], ids=["no-caps", "no-bottom-cap"])
    def test_frustum_caps_without_rows(self, primitive, r, h, top_rows):
        """A hair-thin frustum puts no row on its caps, or, tall, one row on
        its top cap and none on its bottom: every point lies on its lateral
        surface or on a cap."""
        spec = ShapeSpec(5, "thin", primitive, (r, h), (r, h))
        pts = surface_run(spec, 32)
        assert np.array_equal(pts, surface_run(spec, 32,
                                               sampler=reference_surface))
        r_top = 0.7 * r if primitive == "cone_frustum" else r
        rho, z = np.hypot(pts[..., 0], pts[..., 1]), pts[..., 2]
        top = z == h / 2
        assert not (z == -h / 2).any()
        assert (top.sum(axis=1) == top_rows).all()
        assert (rho[top] <= r_top * (1 + 1e-12)).all()
        lateral = ~top
        assert (np.abs(z[lateral]) <= h / 2).all()
        profile = r + (r_top - r) * (z[lateral] / h + 0.5)
        assert np.abs(rho[lateral] - profile).max() <= 1e-9 * r


# seeds of one, two and three 32-bit words; the last two run the loop that
# mixes the entropy words past the pool of four
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 3**50]
STREAM_KEYS = [(class_id, tag, index) for class_id in range(8)
               for tag in (0, 1) for index in (0, 1, 2**32 - 1)]


def assert_numpy_streams(seed, keys):
    """Each key's state is SeedSequence's, and its generator draws what
    numpy's default_rng of that SeedSequence draws."""
    states = data._stream_states(seed, keys)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for state, key in zip(states, keys):
        seq = np.random.SeedSequence((seed, *key))
        assert np.array_equal(state, seq.generate_state(4, np.uint64)), key
        ours, numpys = data._stream(state), np.random.default_rng(seq)
        for draw in (lambda rng: rng.random(5),
                     lambda rng: rng.standard_normal(5),
                     lambda rng: rng.permutation(32)):
            assert np.array_equal(draw(ours), draw(numpys)), key


class TestStreams:
    """build_dataset hashes a split's keys as array ops; each cloud's stream
    is numpy's default_rng(SeedSequence((seed, class id, split tag, index)))."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_states_and_draws_equal_numpys(self, seed):
        assert_numpy_streams(seed, STREAM_KEYS)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**96 - 1), index=st.integers(0, 2**32 - 1),
           class_id=st.integers(0, 7), tag=st.integers(0, 1))
    def test_any_seed_and_index_equal_numpys(self, seed, index, class_id, tag):
        assert_numpy_streams(seed, [(class_id, tag, index), (0, 0, 0)])

    def test_no_keys_give_no_states(self):
        # a split of no class builds too: test_train.py's
        # test_fewer_than_two_classes_rejected[0]
        assert data._stream_states(0, []).shape == (0, 4)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            data._stream_states(-1, [(0, 0, 0)])
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            build_dataset(default_shape_specs()[:2], 2, 2, seed=-3,
                          n_points=32)

    @pytest.mark.parametrize("key, value", [
        ((2**32, 0, 0), 2**32), ((0, 0, 2**32), 2**32), ((-1, 0, 0), -1),
        ((0, 2**64, 0), 2**64)])
    def test_key_outside_one_word_is_named(self, key, value):
        with pytest.raises(ValueError, match=f"index {value} is not in "
                                             r"0\.\.2\*\*32 - 1"):
            data._stream_states(0, [(0, 0, 0), key])

    def test_class_id_outside_one_word_is_named(self):
        spec = replace(fixed_box_spec(), class_id=2**32)
        with pytest.raises(ValueError, match=f"index {2**32} is not in"):
            build_dataset([spec], 2, 2, seed=0, n_points=32)

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32),
                                                (2, np.uint64)])
    def test_state_refuses_any_other_request(self, n_words, dtype):
        state = data._StreamState(data._stream_states(0, [(0, 0, 0)])[0])
        with pytest.raises(ValueError, match=f"not {n_words} of "
                                             f"{np.dtype(dtype)}"):
            state.generate_state(n_words, dtype)


def one_perturbation(name):
    """The none preset with one perturbation at its default strength."""
    return replace(PerturbationConfig.none(),
                   **{name: getattr(PerturbationConfig(), name)})


# occlusion radius 0.45 of the diagonal: at seed 1 and 32 points, the first
# occlusion centre of train cloud 0 of class 3 (desk) removes every point, so
# that cloud draws a second centre (found by searching seeds 0-2 and
# indices 0-5)
SECOND_CENTRE = replace(PerturbationConfig(), occlusion_radius_frac=0.45)


class TestSplitGeneration:
    """A split is generated as one array, but each cloud's bytes are those
    of the cloud generated alone from its own stream."""

    @pytest.mark.parametrize("perturb, seed, n_points", [
        (PerturbationConfig.none(), 3, 48),
        (PerturbationConfig.moderate(), 3, 48),
        (PerturbationConfig(), 3, 48),
        (PerturbationConfig(), 4, 33),
        (one_perturbation("translate_frac"), 3, 48),
        (one_perturbation("rotate"), 3, 48),
        (one_perturbation("scale_range"), 3, 48),
        (one_perturbation("clutter_fraction"), 3, 48),
        (one_perturbation("occlusion_radius_frac"), 3, 48),
        (SECOND_CENTRE, 1, 32),
    ], ids=["none", "moderate", "default", "default-33", "translate", "rotate",
            "scale", "clutter", "occlusion", "second-centre"])
    def test_split_clouds_equal_each_cloud_alone(self, perturb, seed, n_points,
                                                  monkeypatch):
        # chunks of 5 clouds, which cut across classes
        monkeypatch.setattr(data, "GENERATE_CHUNK_ROWS", 5 * n_points)
        specs = default_shape_specs()
        split = build_dataset(specs, 3, 2, seed, perturb, n_points)
        for tag, clouds, count in ((0, split.train, 3), (1, split.test, 2)):
            assert len(clouds) == len(clouds.labels) == count * len(specs)
            for j, (pts, label) in enumerate(zip(clouds.points, clouds.labels)):
                spec, i = specs[j // count], j % count
                alone = generate_sample(spec, perturb,
                                        numpy_rng(seed, spec.class_id, tag, i),
                                        n_points)
                assert label == spec.class_id
                assert np.array_equal(pts, alone), (tag, j)

    def test_second_centre_config_draws_a_second_centre(self, monkeypatch):
        """With one occlusion centre allowed, the cloud named above fails."""
        monkeypatch.setattr(data, "OCCLUSION_RETRIES", 1)
        with pytest.raises(RuntimeError,
                           match=r"train cloud 0 of class 3 \(desk\) in 1 attempts"):
            build_dataset(default_shape_specs(), 3, 2, 1, SECOND_CENTRE, 32)


class TestDataset:
    def test_split_sizes_and_class_presence(self, tiny_dataset):
        assert len(tiny_dataset.train) == 8 * 6
        assert len(tiny_dataset.test) == 8 * 4
        for split, per_class in ((tiny_dataset.train, 6), (tiny_dataset.test, 4)):
            counts = np.bincount(split.labels, minlength=8)
            assert (counts == per_class).all()

    def test_determinism_across_builds(self):
        specs = default_shape_specs()[:3]
        a = build_dataset(specs, 3, 2, seed=21, n_points=48)
        b = build_dataset(specs, 3, 2, seed=21, n_points=48)
        for s1, s2 in ((a.train, b.train), (a.test, b.test)):
            assert np.array_equal(s1.points, s2.points)
            assert np.array_equal(s1.labels, s2.labels)

    def test_roundtrip_bitwise(self, tmp_path, tiny_dataset):
        base = tmp_path / "ds"
        write_dataset(tiny_dataset, base)
        loaded = read_dataset(base)
        assert loaded.class_names == tiny_dataset.class_names
        for orig, back in ((tiny_dataset.train, loaded.train),
                           (tiny_dataset.test, loaded.test)):
            assert np.array_equal(orig.labels, back.labels)
            assert np.array_equal(orig.points, back.points)

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
        # magic, version, class count, the name table, the sample and point
        # counts; then a u16 label and float32 xyz points per sample
        names = tiny_dataset.class_names
        header = 4 + 2 + 2 + sum(2 + len(n.encode("utf-8")) for n in names) + 8
        n_clouds, n_points, _ = tiny_dataset.train.points.shape
        body = n_clouds * (2 + 12 * n_points)
        assert path.stat().st_size == header + body

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cpcd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetFormatError, match="offset 0"):
            read_samples(path)

    def test_bad_version_rejected(self, tmp_path):
        # version 1 files carried a per-sample header and perturbation record
        path = tmp_path / "bad.cpcd"
        for version in (1, 7):
            path.write_bytes(b"CPCD" + bytes([version]) + b"\x00\x00\x00")
            with pytest.raises(DatasetFormatError,
                               match=f"unsupported version {version} at offset 4"):
                read_samples(path)

    def test_truncated_file_rejected(self, tmp_path, tiny_dataset):
        path = tmp_path / "trunc.cpcd"
        train = tiny_dataset.train
        write_samples(path, Clouds(train.points[:3], train.labels[:3]),
                      tiny_dataset.class_names)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(DatasetFormatError):
            read_samples(path)

    # two 2-point samples in a 2-class file: the counts at offset 14, the
    # labels at 22, sample 0's points at 26 and sample 1's at 50, the end at 74
    @pytest.mark.parametrize("edit, match", [
        (lambda b: b[:6], "truncated header at offset 4"),
        (lambda b: b[:12], "truncated class name length at offset 11"),
        (lambda b: b[:20], "truncated sample and point counts at offset 14"),
        (lambda b: b[:14] + np.array([0, 2], "<u4").tobytes(),
         "sample and point counts 0 and 2 at offset 14: the split holds no point"),
        (lambda b: b[:14] + np.array([2, 0], "<u4").tobytes() + b[22:26],
         "sample and point counts 2 and 0 at offset 14: the split holds no point"),
        (lambda b: b[:24], "truncated labels at offset 22"),
        (lambda b: b[:60], "truncated points at offset 26"),
        (lambda b: b + b"xyz", "3 trailing bytes at offset 74"),
        (lambda b: b[:24] + b"\x02\x00" + b[26:],
         "sample label 2 at offset 24 is outside the 2-class table"),
        (lambda b: b[:26] + np.float32(np.inf).tobytes() + b[30:],
         "sample 0 has a non-finite coordinate in its points at offset 26"),
        (lambda b: b[:66] + np.float32(np.nan).tobytes() + b[70:],
         "sample 1 has a non-finite coordinate in its points at offset 50"),
    ])
    def test_malformed_file_names_the_offset(self, tmp_path, edit, match):
        path = tmp_path / "small.cpcd"
        write_samples(path, Clouds(np.ones((2, 2, 3)), np.array([0, 1])),
                      ["a", "b"])
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DatasetFormatError, match=match) as err:
            read_samples(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_clouds_of_unequal_size_are_not_written(self, tmp_path):
        path = tmp_path / "unequal.cpcd"
        for points, labels, match in [
            (np.ones((2, 2, 3)), [0], "1 labels for 2 clouds"),
            (np.ones((2, 2, 3)), [0, 0, 0], "3 labels for 2 clouds"),
            (np.ones((2, 3)), [0, 0], r"points of shape \(2, 3\) are not"),
            (np.ones((2, 2, 2)), [0, 0], r"points of shape \(2, 2, 2\) are not"),
        ]:
            with pytest.raises(ValueError, match=match):
                write_samples(path, Clouds(points, np.array(labels)), ["a"])
            assert not path.exists()

    def test_stack_points_names_the_odd_sample(self):
        for labels in ([0], [0, 0, 0]):
            clouds = Clouds(np.ones((2, 2, 3)), np.array(labels))
            with pytest.raises(ValueError,
                               match=f"{len(labels)} labels for 2 clouds"):
                stack_points(clouds)

    def test_stack_points_rejects_an_empty_split(self):
        with pytest.raises(ValueError, match="the split is empty"):
            stack_points(Clouds(np.empty((0, 2, 3)), np.empty(0, dtype=int)))

    def test_stack_points_returns_the_splits_own_arrays(self, tmp_path,
                                                        tiny_dataset):
        write_dataset(tiny_dataset, tmp_path / "ds")
        for split in (tiny_dataset, read_dataset(tmp_path / "ds")):
            for clouds in (split.train, split.test):
                pts, labels = stack_points(clouds)
                assert pts is clouds.points and labels is clouds.labels
                assert pts.dtype == np.float64 and labels.dtype == int
                assert len(clouds) == pts.shape[0] == labels.shape[0]


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
