import re
import warnings

import numpy as np
import pytest

from rwre_lab import (
    ConfigError,
    Dirichlet,
    FiniteMixture,
    Homogeneous,
    QuenchedEnvironment,
    TransitionVector,
    perturbed_srw,
    sample_dirichlet,
)
from rwre_lab.env import ELLIPTICITY_FLOOR, site_key_prefix, site_stream_keys
from rwre_lab.rng import derive_key


class TestTransitionVector:
    def test_renormalizes(self):
        tv = TransitionVector([0.2, 0.2, 0.2, 0.2])
        assert abs(tv.probs.sum() - 1.0) <= 1e-12
        assert np.allclose(tv.probs, 0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            TransitionVector([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ConfigError):
            TransitionVector([1.1, -0.1])

    def test_rejects_odd_length(self):
        with pytest.raises(ConfigError):
            TransitionVector([0.5, 0.3, 0.2])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=str)
    def test_rejects_non_finite(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite"):
                TransitionVector([bad, 1.0])

    @pytest.mark.parametrize(
        "probs", [["0.25"] * 4, [True, 1, 1, 1], [b"1", 1.0], [None, 1.0], [np.True_, 1.0]], ids=repr
    )
    def test_entries_read_by_the_float_rule(self, probs):
        # np.asarray(probs, float64) once took strings, bools and bytes as numbers and None as NaN
        with pytest.raises(ConfigError, match="a transition probability must be a finite number"):
            TransitionVector(probs)

    @pytest.mark.parametrize("probs, shape", [([[0.5, 0.5]], "(1, 2)"), (0.5, "()"), ([], "(0,)")], ids=repr)
    def test_shape_refused_before_the_entries(self, probs, shape):
        with pytest.raises(ConfigError, match=re.escape(f"transition vector needs 2d entries, got shape {shape}")):
            TransitionVector(probs)

    def test_numbers_of_any_type_read_as_the_same_floats(self):
        got = TransitionVector([1, np.float32(0.5), np.int64(1), 0.5]).probs
        assert got.dtype == np.float64 and np.array_equal(got, TransitionVector([1.0, 0.5, 1.0, 0.5]).probs)


class TestModels:
    def test_homogeneous_ignores_site(self):
        env = QuenchedEnvironment(Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25])), 1)
        assert np.array_equal(env.transitions_at([(0, 0), (5, -3), (1000, 999)]), [[0.4, 0.1, 0.25, 0.25]] * 3)

    def test_perturbed_srw_vector(self):
        model = perturbed_srw(0.1, 1, 2)
        assert np.allclose(model.vector.probs, [0.35, 0.15, 0.25, 0.25])
        model_down = perturbed_srw(0.05, -2, 2)
        assert np.allclose(model_down.vector.probs, [0.25, 0.25, 0.2, 0.3])

    def test_step_law_constants_built_once(self):
        mix = FiniteMixture((TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])), (0.3, 0.7))
        srw = perturbed_srw(0.1, 1, 2)
        for get in (mix.atom_matrix, lambda: srw.vector):
            assert get() is get()
        assert np.array_equal(mix.atom_matrix(), [[0.6, 0.4], [0.8, 0.2]])
        for arr in (mix.atom_matrix(), srw.vector.probs):
            assert not arr.flags.writeable

    def test_perturbed_srw_bounds(self):
        with pytest.raises(ConfigError):
            perturbed_srw(0.25, 1, 2)  # epsilon = 1/(2d)
        with pytest.raises(ConfigError):
            perturbed_srw(0.1, 3, 2)

    def test_mixture_validation(self):
        a = TransitionVector([0.6, 0.4])
        b = TransitionVector([0.8, 0.2])
        with pytest.raises(ConfigError):
            FiniteMixture((a, b), (0.7, 0.2))
        with pytest.raises(ConfigError):
            FiniteMixture((a, b), (1.5, -0.5))
        FiniteMixture((a, b), (0.5, 0.5))

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], [True, 0.5], [0.5, b"0.5"]], ids=repr)
    def test_mixture_weights_read_by_the_float_rule(self, weights):
        a, b = TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])
        with pytest.raises(ConfigError, match="a mixture weight must be a finite number"):
            FiniteMixture((a, b), weights)

    def test_mixture_weight_count_refused_before_the_entries(self):
        a, b = TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])
        for weights in (0.5, ["1"], [0.5, 0.25, 0.25]):
            with pytest.raises(ConfigError, match="one weight per atom required"):
                FiniteMixture((a, b), weights)
        assert FiniteMixture((a, b), (np.float32(0.5), 1 / 2)).weights == (0.5, 0.5)

    def test_dirichlet_validation(self):
        with pytest.raises(ConfigError):
            Dirichlet((1.0, -1.0))
        with pytest.raises(ConfigError):
            Dirichlet((1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=str)
    def test_dirichlet_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            Dirichlet((bad, 1.0))

    def test_dimension_mismatch_raises(self):
        env = QuenchedEnvironment(Homogeneous(TransitionVector([0.5, 0.5])), 3)
        with pytest.raises(ConfigError, match=r"sites must be an \(n, 1\) array, got shape \(1, 2\)"):
            env.transitions_at([(1, 2)])

    def test_fractional_site_refused(self):
        # [[0.5, 0]] was once truncated to the site (0, 0), and [[True, 0]] read as (1, 0)
        for model in (Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25])), Dirichlet((1.0,) * 4)):
            env = QuenchedEnvironment(model, 3)
            for bad, shown in (([[0.5, 0]], "0.5"), ([[True, 0]], "True"), ([[1, 0], [0, np.nan]], "nan")):
                with pytest.raises(ConfigError, match=f"sites must hold integers int64 holds, got {shown}"):
                    env.transitions_at(bad)
            for bad in ([1, 0], [[[1, 0]]]):
                with pytest.raises(ConfigError, match=r"sites must be an \(n, 2\) array"):
                    env.transitions_at(bad)
            assert np.array_equal(env.transitions_at([[2.0, -1.0]]), env.transitions_at([[2, -1]]))


class TestDeterminism:
    def test_cross_process_reproducibility(self):
        import subprocess
        import sys

        script = (
            "from rwre_lab import Dirichlet, QuenchedEnvironment;"
            "print(repr(QuenchedEnvironment(Dirichlet((1.3, 0.6, 2.0, 0.9)), 271828)"
            ".transitions_at([(17, -4)]).tolist()))"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        }
        here = repr(
            QuenchedEnvironment(Dirichlet((1.3, 0.6, 2.0, 0.9)), 271828)
            .transitions_at([(17, -4)])
            .tolist()
        )
        assert outs == {here + "\n"}

    def test_dirichlet_site_is_pure(self):
        env = QuenchedEnvironment(Dirichlet((1.0, 1.0)), 12345)
        first = env.transitions_at([(0,)])
        second = env.transitions_at([(0,)])
        assert np.array_equal(first, second)
        # a fresh object with the same seed reproduces the value bitwise
        again = QuenchedEnvironment(Dirichlet((1.0, 1.0)), 12345).transitions_at([(0,)])
        assert np.array_equal(first, again)

    def test_batched_lookup_matches_scalar(self):
        env = QuenchedEnvironment(Dirichlet((0.8, 1.2, 2.0, 0.5)), 77)
        sites = np.array([[0, 0], [3, -2], [-9, 14]])
        batch = env.transitions_at(sites)
        for row, site in zip(batch, sites):
            assert np.array_equal(row, env.transitions_at(site[None, :])[0])

    def test_distinct_seeds_differ(self):
        a = QuenchedEnvironment(Dirichlet((1.0, 1.0)), 1).transitions_at([(0,)])
        b = QuenchedEnvironment(Dirichlet((1.0, 1.0)), 2).transitions_at([(0,)])
        assert not np.array_equal(a, b)


class TestDirichletSampling:
    # oracle: Dirichlet(a_1..a_K) has E[component i] = a_i / sum(a)

    def test_uniform_mean(self):
        keys = derive_key(101, np.arange(100_000))
        draws = sample_dirichlet([1.0, 1.0], keys)
        assert 0.48 <= draws[:, 0].mean() <= 0.52

    def test_symmetric_means(self):
        keys = derive_key(55, np.arange(40_000))
        draws = sample_dirichlet([0.7, 0.7, 0.7, 0.7], keys)
        assert np.allclose(draws.mean(axis=0), 0.25, atol=0.01)

    def test_asymmetric_mean(self):
        keys = derive_key(9, np.arange(100_000))
        draws = sample_dirichlet([2.0, 1.0], keys)
        assert abs(draws[:, 0].mean() - 2.0 / 3.0) < 0.01

    def test_rejects_bad_alphas(self):
        with pytest.raises(ConfigError):
            sample_dirichlet([1.0, 0.0], np.arange(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=str)
    def test_rejects_non_finite_alphas(self, bad):
        # refused as input, not after the gamma sampler's attempt budget runs out
        with pytest.raises(ConfigError, match="finite"):
            sample_dirichlet([bad, 1.0], derive_key(5, np.arange(3)))

    def test_empty_batch(self):
        assert sample_dirichlet([1.0, 1.0], np.array([], dtype=np.uint64)).shape == (0, 2)

    def test_small_alpha_boost_path(self):
        keys = derive_key(31, np.arange(20_000))
        draws = sample_dirichlet([0.3, 0.5], keys)
        assert abs(draws[:, 0].mean() - 0.375) < 0.02
        assert draws.min() >= ELLIPTICITY_FLOOR

    # alphas below 1 take the boost draw, and 0.05 redraws sub-elliptic vectors over several rounds
    @pytest.mark.parametrize("alphas", [(0.05, 0.5, 0.3), (1.5, 1.2, 1.35, 1.35), (50.0, 200.0)], ids=str)
    def test_index_arithmetic_does_not_overflow(self, alphas):
        # round, component and attempt indices stay far below 2**64; only the key hashing in rng wraps
        keys = derive_key(17, np.arange(2_000))
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            draws = sample_dirichlet(alphas, keys)
        assert draws.shape == (2_000, len(alphas))
        assert draws.min() >= ELLIPTICITY_FLOOR


class TestEnvironmentInvariants:
    def test_ellipticity_over_sampled_sites(self):
        env = QuenchedEnvironment(Dirichlet((0.5, 0.9, 1.5, 0.4)), 314)
        sites = np.random.default_rng(0).integers(-10**6, 10**6, size=(100_000, 2))
        probs = env.transitions_at(sites)
        assert probs.min() > 0.0

    def test_site_independence_proxy(self):
        # correlation of w(x, +e1) between lattice neighbors should vanish
        env = QuenchedEnvironment(Dirichlet((1.0, 1.0, 1.0, 1.0)), 2718)
        xs = np.arange(10_000)
        here = env.transitions_at(np.stack([xs, np.zeros_like(xs)], axis=1))[:, 0]
        right = env.transitions_at(np.stack([xs + 1, np.zeros_like(xs)], axis=1))[:, 0]
        r = np.corrcoef(here, right)[0, 1]
        assert abs(r) < 0.03

    def test_mixture_atom_frequencies(self):
        atoms = (TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2]))
        env = QuenchedEnvironment(FiniteMixture(atoms, (0.5, 0.5)), 161)
        sites = np.arange(40_000)[:, None]
        probs = env.transitions_at(sites)
        frac_first = np.mean(probs[:, 0] == 0.6)
        se = (0.25 / 40_000) ** 0.5
        assert abs(frac_first - 0.5) < 3 * se

    def test_site_keys_distinct(self):
        sites = np.array([[i, j] for i in range(60) for j in range(60)])
        keys = site_stream_keys(site_key_prefix(np.uint64(1)), sites)
        assert len(set(keys.tolist())) == keys.size
