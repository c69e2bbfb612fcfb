import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab import (
    BoxRegion,
    ConfigError,
    Dirichlet,
    FiniteMixture,
    FiniteRegionProblem,
    Homogeneous,
    IntervalRegion,
    NumericError,
    QuenchedEnvironment,
    SlabRegion,
    TransitionVector,
    annealed_exit,
    exact_quenched_exit,
    gamblers_ruin,
    solomon_1d,
)
from rwre_lab.lattice import step_table
from rwre_lab.oracle import MAX_LAYER_SITES, AnnealedExit, SolomonVerdict
from rwre_lab.rng import TAG_ENV, derive_key
from rwre_lab.stats import _normal_ci


def hom_env(probs, seed=0):
    return QuenchedEnvironment(Homogeneous(TransitionVector(probs)), seed)


MIXTURE2D = FiniteMixture(
    (TransitionVector([0.4, 0.1, 0.25, 0.25]), TransitionVector([0.1, 0.4, 0.25, 0.25])), (0.6, 0.4)
)


def ref_annealed_exit(model, region, start, target_class, n_env, master_seed) -> AnnealedExit:
    """Reference: ``annealed_exit`` as it was when it built the region again for every environment."""
    vals = np.empty(n_env)
    for i in range(n_env):
        problem = region.build(QuenchedEnvironment(model, int(derive_key(master_seed, TAG_ENV, i))), start)
        vals[i] = exact_quenched_exit(problem, target_class)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if n_env > 1 else 0.0
    return AnnealedExit(mean, _normal_ci(mean, sd, n_env), n_env, sd)


def class_exits(problem) -> dict[str, float]:
    """The exact exit probability of every boundary class, one solve per class; the values sum to 1."""
    return {label: exact_quenched_exit(problem, label) for label in sorted(problem.classes)}


def dense_exit(problem, targets: set[str]) -> float:
    """Reference: assemble I - P_int site by site and solve it densely."""
    sites = problem.sites
    m, d = sites.shape
    index = {tuple(int(c) for c in row): i for i, row in enumerate(sites)}
    table = step_table(d)
    W = problem.env.transitions_at(sites)
    nb_idx = np.full((m, 2 * d), -1, dtype=np.int64)
    b = np.zeros(m)
    for e in range(2 * d):
        nbs = sites + table[e]
        for i in range(m):
            key = tuple(int(c) for c in nbs[i])
            j = index.get(key)
            if j is not None:
                nb_idx[i, e] = j
            elif problem.boundary[key] in targets:
                b[i] += W[i, e]
    A = np.eye(m)
    for e in range(2 * d):
        rows = np.flatnonzero(nb_idx[:, e] >= 0)
        A[rows, nb_idx[rows, e]] -= W[rows, e]
    return float(np.linalg.solve(A, b)[index[problem.start]])


def gapped_region(start) -> FiniteRegionProblem:
    """Sites 0..10 x 0..2 without the column x = 5, whose sites are boundary class Gap."""
    env = QuenchedEnvironment(Dirichlet((1.2, 0.8, 1.0, 1.0)), 5)
    sites = [(x, y) for x in range(11) if x != 5 for y in range(3)]
    site_set = set(sites)
    boundary = {}
    for x, y in sites:
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in site_set:
                boundary[nb] = "Left" if nb[0] < 0 else "Right" if nb[0] > 10 else "Gap" if nb[0] == 5 else "Side"
    return FiniteRegionProblem(np.asarray(sites), boundary, env, start)


def closed_form_left(env: QuenchedEnvironment, lo: int, hi: int) -> float:
    """Reference: the exact P_0(Left) on lo < x < hi of the float environment ``env``.

    With rho_x = q_x / p_x and r_j the product of rho_x over lo < x <= j,
    P_0(Left) = sum_{j >= 0} r_j / sum_j r_j over j = lo..hi-1.  A site's p_x
    and q_x are floats, so scaling the pair by a power of two gives integers
    P_x and Q_x of the same ratio, and every sum below is exact.
    """
    P, Q = [], []
    for p, q in env.transitions_at(np.arange(lo + 1, hi)[:, None]).tolist():
        (pn, pd), (qn, qd) = p.as_integer_ratio(), q.as_integer_ratio()
        P.append(pn * (max(pd, qd) // pd))
        Q.append(qn * (max(pd, qd) // qd))

    def sum_r(P, Q):
        """The sum over k = 0..len(P) of prod_{i < k} Q_i * prod_{i >= k} P_i."""
        total = prefix = 1
        for p, q in zip(P, Q):
            prefix *= q
            total = total * p + prefix
        return total

    k = -lo  # the sites x < 0
    return math.prod(Q[:k]) * sum_r(P[k:], Q[k:]) / sum_r(P, Q)


# regions of at most a few hundred sites in d = 2 and 3, off the 1D chains whose pivots cancel
SMALL_REGIONS = [
    BoxRegion((-6, -5), (7, 6)),
    BoxRegion((-2, -9), (2, 12)),
    BoxRegion((-3, -3, -3), (3, 3, 3)),
    BoxRegion((-1, -4, -2), (2, 4, 3)),
    SlabRegion((1.0, 0.0), 1.0, 4.0, 8),
    SlabRegion((1.0, 2.0), 0.5, 6.0, 9),
    SlabRegion((1.0, 1.0, 0.0), 1.0, 2.5, 4),
    SlabRegion((0.0, 0.0, 1.0), 2.0, 2.0, 3),
]


class TestGamblersRuin:
    def test_symmetric(self):
        assert gamblers_ruin(0.5, 3, 3) == 0.5

    def test_one_step(self):
        assert gamblers_ruin(0.7, 1, 1) == pytest.approx(0.7, abs=1e-15)

    def test_closed_form_value(self):
        # rho = 3/7: (1 - rho^2) / (1 - rho^4) = 49/58
        assert gamblers_ruin(0.7, 2, 2) == pytest.approx(49 / 58, abs=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ConfigError):
            gamblers_ruin(1.0, 2, 2)

    def test_values_in_the_float_range_keep_their_bytes(self):
        # the bytes these returned before the overflow branch was added; 49/58 itself rounds to ...966
        assert gamblers_ruin(0.7, 2, 2) == 0.8448275862068965
        assert gamblers_ruin(0.35, 2, 6) == 0.01743021484163184
        assert gamblers_ruin(0.3, 400, 400) == 6.445934411278398e-148

    def test_powers_past_the_float_range(self):
        # (7/3) ** 2000 overflows a float: both values raised OverflowError
        assert gamblers_ruin(0.3, 1000, 1000) == 0.0
        assert gamblers_ruin(0.3, 2000, 2) == pytest.approx((3 / 7) ** 2, rel=1e-15)


class TestExactQuenchedExit:
    def test_single_site(self):
        problem = IntervalRegion(-1, 1).build(hom_env([0.7, 0.3]))
        assert exact_quenched_exit(problem, "Right") == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("p,M,N", [(0.7, 2, 2), (0.6, 3, 5), (0.5, 4, 4), (0.35, 2, 6)])
    def test_matches_gamblers_ruin(self, p, M, N):
        problem = IntervalRegion(-M, N).build(hom_env([p, 1 - p]))
        got = exact_quenched_exit(problem, "Right")
        assert abs(got - gamblers_ruin(p, M, N)) < 1e-9

    def test_class_probabilities_sum_to_one(self):
        env = QuenchedEnvironment(Dirichlet((1.0, 0.7, 1.3, 0.9)), 42)
        problem = SlabRegion((1.0, 0.0), 1.0, 3.0, 6).build(env)
        dist = class_exits(problem)
        assert set(dist) == {"Left", "Right", "Side"}
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_solver_paths_agree(self):
        env2 = QuenchedEnvironment(Dirichlet((1.0, 1.0, 1.0, 1.0)), 7)
        env3 = QuenchedEnvironment(Dirichlet((1.0, 0.8, 1.2, 1.0, 0.9, 1.1)), 3)
        box = BoxRegion((-4, -4), (4, 4))
        cases = [
            (box.build(env2, (0, 0)), "high0"),
            # start in the first and the last layer, whichever axis is layered
            *[(box.build(env2, s), {"low1", "high0"}) for s in [(-4, 1), (4, -2), (1, -4), (-2, 4)]],
            # 6,889 sites in 83 layers of 83: the longest chain of layer eliminations here, where rounding could pile up
            (BoxRegion((-41, -41), (41, 41)).build(env2, (3, -5)), "high0"),
            (BoxRegion((-4, -4, -4), (4, 4, 4)).build(env3), {"high2", "low0"}),
            (IntervalRegion(-5, 7).build(QuenchedEnvironment(Dirichlet((1.0, 1.0)), 3), (2,)), "Right"),
            *[(gapped_region(s), {"Right", "Gap"}) for s in [(0, 1), (4, 0), (6, 2), (10, 1)]],
        ]
        for problem, target in cases:
            targets = {target} if isinstance(target, str) else target
            assert abs(exact_quenched_exit(problem, target) - dense_exit(problem, targets)) < 1e-12

    def test_large_box_distribution_sums_to_one(self):
        env = QuenchedEnvironment(Dirichlet((1.0, 1.0, 1.0, 1.0)), 7)
        problem = BoxRegion((-41, -41), (41, 41)).build(env, (3, -5))
        assert problem.sites.shape[0] == 6889
        assert abs(sum(class_exits(problem).values()) - 1.0) < 1e-9

    def test_gap_decouples_the_far_side(self):
        assert exact_quenched_exit(gapped_region((2, 1)), "Right") == 0.0
        assert exact_quenched_exit(gapped_region((8, 1)), "Left") == 0.0

    @pytest.mark.parametrize(
        "region,dim",
        [
            (SlabRegion((1.0, 0.0), 1.0, 3.0, 1_000_000), 2),
            (BoxRegion((-1_000_000, -1_000_000), (1_000_000, 1_000_000)), 2),
            (IntervalRegion(-10**12, 10**12), 1),
        ],
    )
    def test_oversized_region_rejected_before_allocating(self, region, dim):
        env = QuenchedEnvironment(Dirichlet((1.0,) * (2 * dim)), 1)
        with pytest.raises(ConfigError, match="200000"):
            region.build(env)

    def test_oversized_layer_rejected(self):
        # 46^3 sites: every axis gives layers of 2,116 sites
        env = QuenchedEnvironment(Dirichlet((1.0,) * 6), 1)
        problem = BoxRegion((0, 0, 0), (45, 45, 45)).build(env)
        with pytest.raises(ConfigError, match=str(MAX_LAYER_SITES)):
            exact_quenched_exit(problem, "high0")

    def test_duplicate_sites_rejected(self):
        env = hom_env([0.7, 0.3])
        with pytest.raises(ConfigError, match="unique"):
            FiniteRegionProblem(np.asarray([[0], [1], [0]]), {(-1,): "Left", (2,): "Right"}, env, (0,))

    @pytest.mark.parametrize(
        "boundary",
        [{(-1,): "Left", (1,): "Right"}, {(-1, 0): "Left", (1,): "Right"}, {(-1, 0, 0): "Left"}],
        ids=["1D-keys", "ragged", "3D-key"],
    )
    def test_boundary_sites_of_the_wrong_dimension_rejected(self, boundary):
        # 1D keys on a 2D problem were once regrouped into pairs by the reshape
        env = hom_env([0.4, 0.1, 0.25, 0.25])
        with pytest.raises(ConfigError, match="boundary sites do not match environment dimension"):
            FiniteRegionProblem(np.asarray([[0, 0]]), boundary, env, (0, 0))

    def test_target_monotonicity(self):
        env = QuenchedEnvironment(Dirichlet((1.0, 1.0, 1.0, 1.0)), 11)
        problem = SlabRegion((1.0, 0.0), 1.0, 3.0, 5).build(env)
        small = exact_quenched_exit(problem, "Right")
        big = exact_quenched_exit(problem, {"Right", "Side"})
        assert big >= small

    def test_unknown_class_rejected(self):
        problem = IntervalRegion(-2, 2).build(hom_env([0.7, 0.3]))
        with pytest.raises(ConfigError):
            exact_quenched_exit(problem, "Up")

    def test_unlabeled_neighbor_rejected(self):
        env = hom_env([0.7, 0.3])
        sites = np.asarray([[0], [1]])
        with pytest.raises(ConfigError, match=r"neighbor \(2,\) of interior site \(1,\) is unlabeled"):
            FiniteRegionProblem(sites, {(-1,): "Left"}, env, (0,))

    def test_start_outside_rejected(self):
        env = hom_env([0.7, 0.3])
        with pytest.raises(ConfigError, match="start site"):
            IntervalRegion(-2, 2).build(env, (5,))


class TestSelfCheck:
    def test_1d_answers_are_exact_or_refused(self):
        # 16 of these 48 recurrent intervals read wrong by more than 1e-9 without the check, e.g. alpha 1,
        # n 200, seed 2 gave P(Left) 0.0278 against 0.99999
        refused, wrong, agree = 0, [], 0
        for alpha, n, seed in itertools.product((0.3, 0.5, 1.0, 2.0), (50, 200, 400), range(4)):
            env = QuenchedEnvironment(Dirichlet((alpha, alpha)), seed)
            try:
                got = exact_quenched_exit(IntervalRegion(-n, n).build(env, (0,)), "Left")
            except NumericError:
                refused += 1
                continue
            exact = closed_form_left(env, -n, n)
            if abs(got - exact) <= 1e-9:
                agree += 1
            else:
                wrong.append((alpha, n, seed, got, exact))
        assert not wrong
        assert agree and refused

    def test_closed_form_reference(self):
        # against the gambler's ruin, a one-site interval, where P(Left) = q, and dense solves of random intervals
        assert closed_form_left(hom_env([0.7, 0.3]), -2, 2) == pytest.approx(1 - 49 / 58, abs=1e-15)
        assert closed_form_left(hom_env([0.6, 0.4]), -1, 1) == pytest.approx(0.4, abs=1e-15)
        env = QuenchedEnvironment(Dirichlet((1.0, 1.0)), 3)
        for lo, hi in ((-1, 6), (-5, 7), (-9, 1)):
            dense = dense_exit(IntervalRegion(lo, hi).build(env), {"Left"})
            assert closed_form_left(env, lo, hi) == pytest.approx(dense, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        region=st.sampled_from(SMALL_REGIONS),
        alphas=st.lists(st.floats(0.1, 2.0), min_size=6, max_size=6),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_no_refusal_in_2d_and_3d(self, region, alphas, seed):
        d = len(region.lo) if isinstance(region, BoxRegion) else len(region.l_prime)
        dist = class_exits(region.build(QuenchedEnvironment(Dirichlet(alphas[: 2 * d]), seed)))
        values = np.asarray(list(dist.values()))
        assert np.all((0.0 <= values) & (values <= 1.0))
        assert abs(values.sum() - 1.0) <= 1e-9


class TestSolomon:
    def test_homogeneous_ballistic(self):
        res = solomon_1d(Homogeneous(TransitionVector([0.7, 0.3])))
        assert res.verdict is SolomonVerdict.TRANSIENT_PLUS
        assert res.speed == pytest.approx(0.4, abs=1e-12)

    def test_mixture_speed(self):
        # E[rho] = (2/3 + 1/4) / 2 = 11/24, speed (1 - 11/24) / (1 + 11/24) = 13/35
        model = FiniteMixture(
            (TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])), (0.5, 0.5)
        )
        res = solomon_1d(model)
        assert res.verdict is SolomonVerdict.TRANSIENT_PLUS
        assert res.e_rho == pytest.approx(11 / 24, abs=1e-12)
        assert res.speed == pytest.approx(13 / 35, abs=1e-12)

    def test_symmetric_recurrent(self):
        res = solomon_1d(Homogeneous(TransitionVector([0.5, 0.5])))
        assert res.verdict is SolomonVerdict.RECURRENT
        assert res.speed == 0.0

    def test_transient_minus_mirror(self):
        res = solomon_1d(Homogeneous(TransitionVector([0.3, 0.7])))
        assert res.verdict is SolomonVerdict.TRANSIENT_MINUS
        assert res.speed == pytest.approx(-0.4, abs=1e-12)

    def test_zero_speed_regime(self):
        # E[log rho] < 0 but E[rho] > 1: transient with zero speed
        model = FiniteMixture(
            (TransitionVector([0.9, 0.1]), TransitionVector([0.26, 0.74])), (0.5, 0.5)
        )
        res = solomon_1d(model)
        assert res.verdict is SolomonVerdict.TRANSIENT_PLUS
        assert res.e_rho > 1.0
        assert res.speed == 0.0

    def test_dirichlet_unsupported(self):
        with pytest.raises(ConfigError):
            solomon_1d(Dirichlet((1.0, 1.0)))


class TestAnnealedExit:
    def test_homogeneous_zero_variance(self):
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        res = annealed_exit(model, IntervalRegion(-2, 2), (0,), "Right", 5, 3)
        assert res.sd < 1e-12
        assert res.ci[1] - res.ci[0] < 1e-12
        assert res.mean == pytest.approx(49 / 58, abs=1e-9)

    def test_single_env_matches_exact_bitwise(self):
        model = Dirichlet((1.0, 1.0))
        res = annealed_exit(model, IntervalRegion(-3, 3), (0,), "Right", 1, 99)
        env = QuenchedEnvironment(model, int(derive_key(99, TAG_ENV, 0)))
        direct = exact_quenched_exit(IntervalRegion(-3, 3).build(env), "Right")
        assert res.mean == direct
        assert res.ci == (direct, direct)

    def test_ci_shrinks_with_more_environments(self):
        model = FiniteMixture(
            (TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])), (0.5, 0.5)
        )
        few = annealed_exit(model, IntervalRegion(-3, 3), (0,), "Right", 8, 1)
        many = annealed_exit(model, IntervalRegion(-3, 3), (0,), "Right", 128, 1)
        assert few.sd > 0
        width_few = few.ci[1] - few.ci[0]
        width_many = many.ci[1] - many.ci[0]
        assert width_many < width_few

    @pytest.mark.parametrize(
        "model, region, start, target",
        [
            (Dirichlet((1.0, 1.0)), IntervalRegion(-4, 6), (0,), "Right"),
            (Dirichlet((1.5, 1.2, 1.35, 1.35)), SlabRegion((1.0, 0.0), 1.0, 5.0, 6), None, "Left"),
            (Dirichlet((1.5, 1.2, 1.35, 1.35)), SlabRegion((1.0, 1.0), 0.5, 4.0, 5), None, {"Left", "Side"}),
            (MIXTURE2D, BoxRegion((-3, -2), (2, 3)), (0, 0), "high0"),
        ],
        ids=["interval", "slab", "tilted-slab", "box"],
    )
    def test_one_build_matches_a_build_per_environment(self, model, region, start, target):
        for n_env in (1, 2, 8):
            got = annealed_exit(model, region, start, target, n_env, 17)
            assert got == ref_annealed_exit(model, region, start, target, n_env, 17)
