import math

import numpy as np
import pytest

from idt import sglight as sg
from idt.sglight import SGLobe, SGMixture


def rand_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def rand_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rand_mixture(rng, k=3, lam_range=(0.5, 50.0), ambient_max=0.3):
    lobes = tuple(
        SGLobe(rand_unit(rng), rng.uniform(*lam_range), rng.uniform(0.05, 1.0, 3))
        for _ in range(k))
    return SGMixture(lobes, rng.uniform(0.0, ambient_max, 3))


def rotate_mixture(m, rot):
    lobes = []
    for l in m.lobes:
        a = rot @ l.axis
        lobes.append(SGLobe(a / np.linalg.norm(a), l.sharpness, l.amplitude))
    return SGMixture(tuple(lobes), m.ambient)


class TestValidation:
    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            SGLobe([1.0, 1.0, 0.0], 1.0, [1.0, 1.0, 1.0])

    def test_sharpness_positive(self):
        with pytest.raises(ValueError):
            SGLobe([0, 0, 1], 0.0, [1, 1, 1])
        with pytest.raises(ValueError):
            SGLobe([0, 0, 1], -2.0, [1, 1, 1])

    def test_amplitude_nonnegative(self):
        with pytest.raises(ValueError):
            SGLobe([0, 0, 1], 1.0, [1, -0.1, 1])

    def test_mixture_needs_a_lobe(self):
        with pytest.raises(ValueError):
            SGMixture((), [0, 0, 0])

    def test_ambient_nonnegative(self):
        lobe = SGLobe([0, 0, 1], 1.0, [1, 1, 1])
        with pytest.raises(ValueError):
            SGMixture((lobe,), [-0.1, 0, 0])

    def test_fields_immutable(self):
        lobe = SGLobe([0, 0, 1], 1.0, [1, 1, 1])
        with pytest.raises(ValueError):
            lobe.axis[0] = 5.0


class TestRadiance:
    def test_on_axis_equals_amplitude(self):
        mu = np.array([0.3, 0.7, 0.2])
        m = SGMixture((SGLobe([0, 0, 1], 4.0, mu),), [0, 0, 0])
        np.testing.assert_array_equal(sg.sg_radiance(m, [0, 0, 1]), mu)

    def test_tiny_sharpness_is_constant(self):
        mu = np.array([0.5, 0.5, 0.5])
        m = SGMixture((SGLobe([0, 0, 1], 1e-12, mu),), [0, 0, 0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            np.testing.assert_allclose(sg.sg_radiance(m, rand_unit(rng)), mu,
                                       atol=1e-11)

    def test_orthogonal_direction(self):
        # lambda=1, mu=2, w.xi=0 -> 2/e per channel
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [2, 2, 2]),), [0, 0, 0])
        v = sg.sg_radiance(m, [1, 0, 0])
        np.testing.assert_allclose(v, 2.0 * math.exp(-1.0), rtol=1e-15)

    def test_non_unit_direction_rejected(self):
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [1, 1, 1]),), [0, 0, 0])
        with pytest.raises(ValueError):
            sg.sg_radiance(m, [0, 0, 1.001])

    def test_adding_lobe_never_decreases(self):
        rng = np.random.default_rng(5)
        m = rand_mixture(rng, k=2)
        extra = SGLobe(rand_unit(rng), 3.0, [0.2, 0.1, 0.4])
        m2 = SGMixture(m.lobes + (extra,), m.ambient)
        for _ in range(20):
            d = rand_unit(rng)
            a = sg.sg_radiance(m, d)
            b = sg.sg_radiance(m2, d)
            assert (b >= a - 1e-15).all()

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        m = rand_mixture(rng)
        for _ in range(50):
            assert (sg.sg_radiance(m, rand_unit(rng)) >= 0).all()

    def test_mean_radiance_matches_sphere_quadrature(self):
        rng = np.random.default_rng(7)
        m = rand_mixture(rng, k=2, lam_range=(0.5, 10.0))
        n = 200000
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        avg = sg.sg_radiance(m, dirs).mean(axis=0)
        np.testing.assert_allclose(sg.mean_radiance(m), avg, rtol=1e-4)


class TestIrradiance:
    def test_pure_ambient_exact(self):
        amb = np.array([0.3, 0.5, 0.2])
        # zero-amplitude lobe: only ambient contributes
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [0, 0, 0]),), amb)
        rng = np.random.default_rng(1)
        for _ in range(5):
            out = sg.diffuse_irradiance(m, rand_unit(rng))
            np.testing.assert_allclose(out, amb, atol=1e-9, rtol=0)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rand_mixture(rng)
            n = rand_unit(rng)
            rot = rand_rotation(rng)
            nr = rot @ n
            nr /= np.linalg.norm(nr)
            a = sg.diffuse_irradiance(m, n)
            b = sg.diffuse_irradiance(rotate_mixture(m, rot), nr)
            np.testing.assert_allclose(a, b, atol=1e-9, rtol=0)

    def test_matches_dense_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rand_mixture(rng, k=2)
            n = rand_unit(rng)
            a = sg.diffuse_irradiance(m, n)
            b = sg.diffuse_irradiance(m, n, n_samples=200000)
            np.testing.assert_allclose(a, b, rtol=5e-3)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        m = rand_mixture(rng)
        normals = np.stack([rand_unit(rng) for _ in range(7)])
        batch = sg.diffuse_irradiance_batch(m, normals)
        for i in range(7):
            single = sg.diffuse_irradiance(m, normals[i])
            np.testing.assert_array_equal(batch[i], single)

    def test_normal_validated(self):
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [1, 1, 1]),), [0, 0, 0])
        with pytest.raises(ValueError):
            sg.diffuse_irradiance(m, [0, 0, 2])

    def test_axis_parallel_to_normal(self):
        # anchored-frame fallback path: lobe axis equals the normal
        m = SGMixture((SGLobe([0, 0, 1], 5.0, [1, 1, 1]),), [0.1, 0.1, 0.1])
        a = sg.diffuse_irradiance(m, [0, 0, 1.0])
        b = sg.diffuse_irradiance(m, [0, 0, 1.0], n_samples=200000)
        np.testing.assert_allclose(a, b, rtol=5e-3)


class TestSpecular:
    def test_backfacing_is_zero(self):
        rng = np.random.default_rng(8)
        m = rand_mixture(rng)
        n = np.array([0.0, 0.0, 1.0])
        v = np.array([0.0, 0.0, -1.0])
        # grazing exactly at n.v = 0 also clamps
        v2 = np.array([1.0, 0.0, 0.0])
        got = sg.specular_response_batch(m, np.stack([n, n]),
                                         np.stack([v, v2]), 50.0)
        np.testing.assert_array_equal(got, np.zeros((2, 3)))

    def test_aligned_view_is_maximal(self):
        n = np.array([0.0, 0.0, 1.0])
        m = SGMixture((SGLobe(n, 8.0, [1, 1, 1]),), [0, 0, 0])
        rng = np.random.default_rng(9)
        best = sg.specular_response_batch(m, n[None], n[None], 30.0)[0]
        views = np.stack([rand_unit(rng) for _ in range(100)])
        views[views @ n <= 0] *= -1.0
        r = sg.specular_response_batch(m, np.tile(n, (100, 1)), views, 30.0)
        assert (r <= best + 1e-12).all()

    def test_closed_form_expansion(self):
        # hand-expanded formula at one fixed configuration; ambient is
        # excluded from the glossy term by convention
        xi = np.array([0.0, 1.0, 0.0])
        lam, g = 6.0, 40.0
        mu = np.array([0.8, 0.4, 0.2])
        amb = np.array([0.05, 0.06, 0.07])
        m = SGMixture((SGLobe(xi, lam, mu),), amb)
        n = np.array([0.0, 0.0, 1.0])
        v = np.array([0.0, 3.0, 4.0]) / 5.0
        r = 2.0 * (n @ v) * n - v
        lam_eff = lam * g / (lam + g)
        expected = mu * math.exp(lam_eff * (r @ xi - 1.0))
        got = sg.specular_response_batch(m, n[None], v[None], g)[0]
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_pure_ambient_gives_zero(self):
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [0, 0, 0]),), [0.4, 0.5, 0.6])
        z = np.array([[0.0, 0.0, 1.0]])
        got = sg.specular_response_batch(m, z, z, 30.0)
        np.testing.assert_array_equal(got, np.zeros((1, 3)))

    def test_gloss_positive_required(self):
        m = SGMixture((SGLobe([0, 0, 1], 1.0, [1, 1, 1]),), [0, 0, 0])
        z = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            sg.specular_response_batch(m, z, z, 0.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        m = rand_mixture(rng)
        normals = np.stack([rand_unit(rng) for _ in range(6)])
        views = np.stack([rand_unit(rng) for _ in range(6)])
        batch = sg.specular_response_batch(m, normals, views, 25.0)
        for i in range(6):
            single = sg.specular_response_batch(m, normals[i:i + 1],
                                                views[i:i + 1], 25.0)
            np.testing.assert_array_equal(batch[i:i + 1], single)


class TestCanonicalize:
    @staticmethod
    def assert_canonical(m):
        key = [(l.luminance, l.sharpness) for l in m.lobes]
        assert key == sorted(key, reverse=True)

    def test_restores_swapped_order(self):
        bright = SGLobe([0, 0, 1], 3.0, [1.0, 1.0, 1.0])
        dim = SGLobe([0, 1, 0], 5.0, [0.1, 0.1, 0.1])
        m = SGMixture((dim, bright), [0, 0, 0])
        c = sg.canonicalize(m)
        assert c.lobes[0] is bright and c.lobes[1] is dim
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = rand_unit(rng)
            np.testing.assert_allclose(sg.sg_radiance(m, d),
                                       sg.sg_radiance(c, d), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        m = rand_mixture(rng, k=4)
        c1 = sg.canonicalize(m)
        c2 = sg.canonicalize(c1)
        assert [id(l) for l in c1.lobes] == [id(l) for l in c2.lobes]
        self.assert_canonical(c1)

    def test_luminance_tie_broken_by_sharpness(self):
        a = SGLobe([0, 0, 1], 2.0, [0.5, 0.5, 0.5])
        b = SGLobe([0, 1, 0], 9.0, [0.5, 0.5, 0.5])
        c = sg.canonicalize(SGMixture((a, b), [0, 0, 0]))
        assert c.lobes[0] is b


class TestPackUnpack:
    def test_round_trip_radiance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rand_mixture(rng)
            vec = sg.pack(m)
            assert vec.shape == (7 * m.k + 3,)
            m2 = sg.unpack(vec, m.k)
            for _ in range(20):
                d = rand_unit(rng)
                np.testing.assert_allclose(sg.sg_radiance(m, d),
                                           sg.sg_radiance(m2, d), atol=1e-9)

    def test_zero_raw_vector(self):
        m = sg.unpack(np.zeros(10), 1)
        # degenerate axis falls back to +z; softplus(0) = log 2
        np.testing.assert_array_equal(m.lobes[0].axis, [0, 0, 1])
        np.testing.assert_allclose(m.lobes[0].sharpness, math.log(2.0))

    def test_random_raw_vectors_always_valid(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            vec = rng.standard_normal(7 * k + 3) * 10.0
            m = sg.unpack(vec, k)
            assert m.k == k
            for l in m.lobes:
                assert abs(np.linalg.norm(l.axis) - 1.0) <= 1e-9
                assert l.sharpness > 0
                assert (l.amplitude >= 0).all()
            assert (m.ambient >= 0).all()
            TestCanonicalize.assert_canonical(m)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            sg.unpack(np.zeros(11), 1)

    def test_zero_amplitude_survives(self):
        m = SGMixture((SGLobe([0, 0, 1], 2.0, [0, 0, 0]),), [0, 0, 0])
        m2 = sg.unpack(sg.pack(m), 1)
        assert (m2.lobes[0].amplitude <= 1e-11).all()


class TestTextFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        m = sg.canonicalize(rand_mixture(rng))
        p = tmp_path / "light.sgm"
        sg.save_sgm(p, m)
        m2 = sg.load_sgm(p)
        assert m2.k == m.k
        np.testing.assert_array_equal(m2.ambient, m.ambient)
        for a, b in zip(m.lobes, m2.lobes):
            np.testing.assert_array_equal(a.axis, b.axis)
            assert a.sharpness == b.sharpness
            np.testing.assert_array_equal(a.amplitude, b.amplitude)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(16)
        m = rand_mixture(rng)
        p1, p2 = tmp_path / "a.sgm", tmp_path / "b.sgm"
        sg.save_sgm(p1, m)
        sg.save_sgm(p2, m)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.sgm"
        p.write_text("")
        with pytest.raises(ValueError):
            sg.load_sgm(p)
        p.write_text("x\n0 0 0\n")
        with pytest.raises(ValueError):
            sg.load_sgm(p)
        p.write_text("1\n0 0 0\n0 0 1 1.0 1 1\n")  # 6 floats on lobe line
        with pytest.raises(ValueError):
            sg.load_sgm(p)
        p.write_text("2\n0 0 0\n0 0 1 1.0 1 1 1\n")  # missing lobe line
        with pytest.raises(ValueError):
            sg.load_sgm(p)
