"""Ordering and partitioning oracle tests.

Frozen expectations:

* interleave of the identity order, n = 9, K = 3: stride = 3, output index i
  reads slot (i mod 3) * 3 + i // 3, giving (0, 3, 6, 1, 4, 7, 2, 5, 8).
* sliding windows for n = 10, T = 4, O = 2: starts 0, 2, 4, 6 -> 4 subsets;
  n = 1000, T = 100, O = 5 -> ceil(900 / 95) + 1 = 11 subsets.
* brute-force path objective over all permutations is the optimality oracle
  for small n (computed independently here, never by the implementation).
"""

import itertools

import numpy as np
import pytest

from scenemerge.errors import ConfigError, InvalidSimilarityError
from scenemerge.ordering import (
    SceneGraphPlan,
    SimilarityMatrix,
    build_pseudo_order,
    expected_subset_count,
    interleave,
    make_subsets,
    path_objective,
    plan_scene,
)


def random_similarity(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, n))
    m = (a + a.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return SimilarityMatrix(m)


def brute_force_best(similarity):
    """Exhaustive open-path maximum; only feasible for small n."""
    n = similarity.n
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, path_objective(np.array(perm), similarity))
    return best


class TestSimilarityValidation:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidSimilarityError):
            SimilarityMatrix(np.ones((3, 4)))

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(InvalidSimilarityError):
            SimilarityMatrix(m)

    def test_rejects_bad_diagonal(self):
        m = np.full((3, 3), 0.5)
        with pytest.raises(InvalidSimilarityError):
            SimilarityMatrix(m)

    def test_rejects_out_of_range(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 1.5
        with pytest.raises(InvalidSimilarityError):
            SimilarityMatrix(m)

    def test_accepts_valid(self):
        m = random_similarity(np.random.default_rng(0), 5)
        assert m.n == 5


class TestPseudoOrder:
    def test_path_objective_hand_value(self):
        m = np.array([[1.0, 0.2, 0.7], [0.2, 1.0, 0.4], [0.7, 0.4, 1.0]])
        sim = SimilarityMatrix(m)
        assert path_objective([0, 1, 2], sim) == pytest.approx(0.2 + 0.4)
        assert path_objective([1, 0, 2], sim) == pytest.approx(0.2 + 0.7)

    def test_returns_permutation(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 8, 40):
            order = build_pseudo_order(random_similarity(rng, n))
            assert sorted(order.tolist()) == list(range(n))

    def test_beats_or_matches_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            sim = random_similarity(rng, int(rng.integers(2, 30)))
            order = build_pseudo_order(sim)
            assert path_objective(order, sim) >= path_objective(np.arange(sim.n), sim)

    def test_deterministic(self):
        sim = random_similarity(np.random.default_rng(3), 25)
        a = build_pseudo_order(sim)
        b = build_pseudo_order(sim)
        np.testing.assert_array_equal(a, b)

    def test_near_optimal_small_instances(self):
        # acceptance criterion 9 checks >= 0.85 of brute force on n <= 8
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(4, 9))
            sim = random_similarity(rng, n)
            got = path_objective(build_pseudo_order(sim), sim)
            assert got >= 0.85 * brute_force_best(sim)

    def test_three_image_optimum(self):
        # M(0,1)=0.2, M(0,2)=0.9, M(1,2)=0.8: best open path is 1-2-0 (or its
        # reverse) with objective 0.8 + 0.9 = 1.7, verified by enumeration
        m = np.array([[1.0, 0.2, 0.9], [0.2, 1.0, 0.8], [0.9, 0.8, 1.0]])
        sim = SimilarityMatrix(m)
        assert brute_force_best(sim) == pytest.approx(1.7)
        assert path_objective(build_pseudo_order(sim), sim) == pytest.approx(1.7)

    def test_block_diagonal_groups_stay_contiguous(self):
        # two 5-image groups, within-group similarity 0.9, cross 0.1: any
        # path mixing the groups pays extra 0.1-edges, so each group must
        # come out contiguous
        m = np.full((10, 10), 0.1)
        m[:5, :5] = 0.9
        m[5:, 5:] = 0.9
        np.fill_diagonal(m, 1.0)
        order = build_pseudo_order(SimilarityMatrix(m))
        groups = [0 if i < 5 else 1 for i in order.tolist()]
        switches = sum(a != b for a, b in zip(groups, groups[1:]))
        assert switches == 1

    def test_recovers_a_planted_chain(self):
        # chain 0-1-2-...-n with high consecutive similarity must come back
        # as the planted path or its reversal
        n = 12
        m = np.full((n, n), 0.05)
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = 0.9
        np.fill_diagonal(m, 1.0)
        order = build_pseudo_order(SimilarityMatrix(m)).tolist()
        assert order == list(range(n)) or order == list(range(n))[::-1]


class TestInterleave:
    def test_frozen_nine_three(self):
        out = interleave(np.arange(9), 3)
        np.testing.assert_array_equal(out, [0, 3, 6, 1, 4, 7, 2, 5, 8])

    def test_applies_to_arbitrary_order(self):
        base = np.array([4, 2, 0, 1, 3, 5, 8, 7, 6])
        out = interleave(base, 3)
        np.testing.assert_array_equal(out, base[[0, 3, 6, 1, 4, 7, 2, 5, 8]])

    def test_skips_tail_slots(self):
        # n = 10, K = 3: stride 4, grid columns 0-3 / 4-7 / 8-9
        out = interleave(np.arange(10), 3)
        np.testing.assert_array_equal(out, [0, 4, 8, 1, 5, 9, 2, 6, 3, 7])

    def test_bijection_property(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            base = rng.permutation(n)
            out = interleave(base, k)
            assert sorted(out.tolist()) == list(range(n))

    def test_k_one_is_identity(self):
        base = np.random.default_rng(6).permutation(15)
        np.testing.assert_array_equal(interleave(base, 1), base)

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            interleave(np.arange(5), 0)
        with pytest.raises(ConfigError):
            interleave(np.arange(5), 6)


class TestMakeSubsets:
    def test_frozen_ten_four_two(self):
        subsets = make_subsets(np.arange(10), 4, 2)
        assert len(subsets) == 4
        np.testing.assert_array_equal(subsets[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(subsets[1], [2, 3, 4, 5])
        np.testing.assert_array_equal(subsets[2], [4, 5, 6, 7])
        np.testing.assert_array_equal(subsets[3], [6, 7, 8, 9])

    def test_frozen_thousand_hundred_five(self):
        subsets = make_subsets(np.arange(1000), 100, 5)
        assert len(subsets) == 11
        assert expected_subset_count(1000, 100, 5) == 11

    def test_whole_sequence_fits(self):
        subsets = make_subsets(np.arange(7), 10, 3)
        assert len(subsets) == 1
        np.testing.assert_array_equal(subsets[0], np.arange(7))

    def test_coverage_and_exact_overlap(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            n = int(rng.integers(2, 120))
            t = int(rng.integers(2, max(3, n + 2)))
            o = int(rng.integers(0, t))
            base = rng.permutation(n)
            subsets = make_subsets(base, t, o)
            assert len(subsets) == expected_subset_count(n, t, o)
            seen = set()
            for s in subsets:
                seen.update(s.tolist())
            assert seen == set(range(n))
            for a, b in zip(subsets, subsets[1:]):
                assert len(set(a.tolist()) & set(b.tolist())) == o

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            make_subsets(np.arange(10), 0, 0)
        with pytest.raises(ConfigError):
            make_subsets(np.arange(10), 4, 4)
        with pytest.raises(ConfigError):
            make_subsets(np.arange(10), 4, -1)


class TestPlanScene:
    def test_plan_is_consistent(self):
        rng = np.random.default_rng(11)
        sim = random_similarity(rng, 50)
        plan = plan_scene(sim, subset_size=12, overlap=3)
        assert plan.n_images == 50
        assert len(plan.subsets) == expected_subset_count(50, 12, 3)
        plan.validate()

    def test_default_k_is_window_count(self):
        sim = random_similarity(np.random.default_rng(12), 30)
        plan = plan_scene(sim, subset_size=10, overlap=2)
        assert plan.n_subsequences == expected_subset_count(30, 10, 2)

    def test_zero_overlap_needs_a_single_subset(self):
        """Several subsets must share frames to be aligned; one subset needs none."""
        sim = random_similarity(np.random.default_rng(13), 24)
        with pytest.raises(ConfigError, match="overlap must be >= 1 for a plan of 3 subsets, got 0"):
            plan_scene(sim, subset_size=8, overlap=0)
        plan = plan_scene(sim, subset_size=24, overlap=0)
        assert len(plan.subsets) == 1

    def test_validate_catches_bad_plans(self):
        with pytest.raises(ConfigError):
            SceneGraphPlan(
                pseudo_order=np.arange(6),
                interleaved_order=np.arange(6),
                subsets=[np.array([0, 1, 2])],  # 3..5 uncovered
                subset_size=3,
                overlap=0,
                n_subsequences=1,
            )
        with pytest.raises(ConfigError):
            SceneGraphPlan(
                pseudo_order=np.array([0, 0, 1]),  # not a permutation
                interleaved_order=np.arange(3),
                subsets=[np.arange(3)],
                subset_size=3,
                overlap=0,
                n_subsequences=1,
            )
