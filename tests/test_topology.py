import numpy as np
import pytest

from tmmse.topology import (
    assign_serving_stripes,
    association_from_stripes,
    build_grid_deployment,
    map_index,
    stripe_layout,
    tx_index,
)


class TestIndexMapping:
    def test_first_element(self):
        assert map_index(1, 5, 20) == (1, 1)

    def test_row_major_convention(self):
        assert map_index(21, 5, 20) == (2, 1)

    def test_last_element(self):
        assert map_index(100, 5, 20) == (5, 20)

    @pytest.mark.parametrize("l", [0, 101, -3])
    def test_out_of_range_rejected(self, l):
        with pytest.raises(ValueError):
            map_index(l, 5, 20)

    def test_bijection(self):
        for l in range(1, 101):
            q, m = map_index(l, 5, 20)
            assert tx_index(q, m, 5, 20) == l

    def test_inverse_range_checks(self):
        with pytest.raises(ValueError):
            tx_index(6, 1, 5, 20)
        with pytest.raises(ValueError):
            tx_index(1, 21, 5, 20)


class TestGridDeployment:
    def test_case_study_grid(self):
        dep = build_grid_deployment(5, 20, (100, 50), 7)
        assert dep.num_txs == 100
        np.testing.assert_allclose(dep.stripe_depths(), [5, 15, 25, 35, 45])
        assert (dep.tx_positions[:, 2] == 7).all()

    def test_single_tx_centroid(self):
        dep = build_grid_deployment(1, 1, (10, 10), 3)
        np.testing.assert_allclose(dep.tx_positions[0], [5, 5, 3])

    def test_two_by_two(self):
        dep = build_grid_deployment(2, 2, (4, 4), 2)
        np.testing.assert_allclose(sorted(set(dep.tx_positions[:, 1])), [1, 3])
        np.testing.assert_allclose(sorted(set(dep.tx_positions[:, 0])), [1, 3])

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_grid_deployment(2, 2, (0, 4), 2)
        with pytest.raises(ValueError):
            build_grid_deployment(0, 2, (4, 4), 2)

    def test_users_outside_area_rejected(self):
        dep = build_grid_deployment(2, 2, (4, 4), 2)
        with pytest.raises(ValueError):
            dep.place_users([[5.0, 1.0]])


class TestAssignment:
    @pytest.fixture
    def grid(self):
        return build_grid_deployment(5, 20, (100, 50), 7)

    def test_nearest_two_lines(self, grid):
        dep = grid.place_users([[10.0, 5.0]])
        assoc = assign_serving_stripes(dep, 2)
        assert assoc.serving_stripes[0] == (0, 1)

    def test_equidistant_tie_break_low_index(self, grid):
        dep = grid.place_users([[10.0, 25.0]])
        assoc = assign_serving_stripes(dep, 2)
        assert assoc.serving_stripes[0] == (1, 2)

    def test_full_association(self, grid):
        dep = grid.place_users([[10.0, 25.0], [90.0, 40.0]])
        assoc = assign_serving_stripes(dep, 5)
        assert assoc.serving_txs[0] == tuple(range(100))
        for l in range(100):
            assert assoc.served_users[l] == (0, 1)

    def test_count_out_of_range(self, grid):
        dep = grid.place_users([[10.0, 25.0]])
        with pytest.raises(ValueError):
            assign_serving_stripes(dep, 6)

    def test_bidirectional_consistency(self, rng):
        # k in K_l  <=>  l in L_k, by double enumeration on random drops
        for _ in range(10):
            dep = build_grid_deployment(4, 3, (40, 40), 5).place_users(
                rng.uniform(0, 40, size=(6, 2))
            )
            assoc = assign_serving_stripes(dep, int(rng.integers(1, 5)))
            for l in range(assoc.num_txs):
                for k in range(assoc.num_users):
                    assert (k in assoc.served_users[l]) == (l in assoc.serving_txs[k])
            total_served = sum(len(s) for s in assoc.served_users)
            total_serving = sum(len(s) for s in assoc.serving_txs)
            assert total_served == total_serving

    def test_stripe_granularity(self, rng):
        dep = build_grid_deployment(3, 5, (30, 30), 5).place_users(
            rng.uniform(0, 30, size=(4, 2))
        )
        assoc = assign_serving_stripes(dep, 2)
        layout = stripe_layout(3, 5)
        for k in range(4):
            for q in assoc.serving_stripes[k]:
                for l in layout[q]:
                    assert l in assoc.serving_txs[k]

    def test_relabeling_invariance(self, rng):
        positions = rng.uniform(0, 40, size=(7, 2))
        dep = build_grid_deployment(4, 3, (40, 40), 5)
        assoc = assign_serving_stripes(dep.place_users(positions), 2)
        perm = rng.permutation(7)
        assoc_perm = assign_serving_stripes(dep.place_users(positions[perm]), 2)
        for new_k, old_k in enumerate(perm):
            assert assoc_perm.serving_stripes[new_k] == assoc.serving_stripes[old_k]

    def test_nonempty_serving_sets(self):
        with pytest.raises(ValueError):
            association_from_stripes([()], 2, 3)
