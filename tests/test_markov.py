"""Master-equation engine: operator assembly, evolution, entropy, H-theorem."""

import json
import math
import time

import numpy as np
import pytest

from demonlab import markov
from demonlab.errors import (
    DivergenceError,
    InvalidInputError,
    NonUniqueEquilibriumError,
)
from demonlab.reporting import write_csv
from demonlab.units import UnitSystem

TWO_STATE = markov.RateMatrix([[0.0, 1.0], [1.0, 0.0]])


def two_state_closed_form(p1_initial: float, rate: float, t: float) -> float:
    # independent oracle: p1(t) = 1/2 + (p1(0) - 1/2) e^{-2 r t}
    return 0.5 + (p1_initial - 0.5) * math.exp(-2.0 * rate * t)


class TestRateMatrix:
    def test_rejects_negative_rate(self):
        with pytest.raises(InvalidInputError):
            markov.RateMatrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            markov.RateMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            markov.RateMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])

    def test_diagonal_ignored(self):
        r = markov.RateMatrix([[5.0, 1.0], [1.0, -2.0]])
        assert r.rates[0, 0] == 0.0 and r.rates[1, 1] == 0.0

    def test_connectivity(self):
        connected = markov.RateMatrix([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
        assert connected.is_connected()
        split = markov.RateMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]])
        assert not split.is_connected()

    def test_connectivity_agrees_with_scipy_components(self):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(11)
        path = np.diag(np.ones(299), 1)  # 0-1-...-299: the deepest search from state 0
        shuffled = rng.permutation(300)
        isolated = np.ones((6, 6))
        isolated[4, :] = isolated[:, 4] = 0.0
        graphs = [
            path + path.T,
            (path + path.T)[np.ix_(shuffled, shuffled)],
            isolated,
            np.kron(np.eye(2), np.ones((4, 4))),  # two components
            np.ones((2, 2)),
            np.zeros((2, 2)),
        ]
        for n in (2, 3, 7, 30, 120):
            for prob in (0.02, 0.08, 0.3):
                upper = np.triu(rng.random((n, n)) < prob, 1) * rng.uniform(0.5, 2.0, (n, n))
                graphs.append(upper + upper.T)
        outcomes = []
        for r in graphs:
            expected = connected_components(r > 0.0, directed=False)[0] == 1
            assert markov.RateMatrix(r).is_connected() == expected
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)


class TestProbDist:
    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            markov.ProbDist([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            markov.ProbDist([0.5, 0.6])

    def test_uniform(self):
        u = markov.ProbDist.uniform(4)
        assert np.allclose(u.p, 0.25) and u.n == 4


class TestRandomSymmetricRates:
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_spanning_tree_without_extra_edges(self, n):
        rates = markov.random_symmetric_rates(n, np.random.default_rng(n), extra_edge_prob=0.0)
        assert rates.is_connected()
        assert np.count_nonzero(np.triu(rates.rates)) == n - 1

    def test_rates_in_range_and_extra_edges_added(self):
        rates = markov.random_symmetric_rates(60, np.random.default_rng(20), 0.5, 2.0, 0.3)
        edges = rates.rates[np.triu_indices(60, 1)]
        present = edges[edges > 0.0]
        assert present.min() >= 0.5 and present.max() < 2.0
        # 59 tree edges plus about 0.3 of the other 1711 pairs
        assert 0.25 < (present.size - 59) / 1711 < 0.35


class TestBuildMasterOperator:
    def test_built_once_per_rate_matrix(self):
        rates = markov.random_symmetric_rates(5, np.random.default_rng(21))
        op = markov.build_master_operator(rates)
        assert markov.build_master_operator(rates) is op
        assert op.spectrum is op.spectrum


    def test_two_state_unit_rate(self):
        op = markov.build_master_operator(TWO_STATE)
        assert np.array_equal(op.matrix, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_all_zero_rates(self):
        op = markov.build_master_operator(markov.RateMatrix(np.zeros((3, 3))))
        assert np.array_equal(op.matrix, np.zeros((3, 3)))

    def test_three_state_ring(self):
        ring = markov.RateMatrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        op = markov.build_master_operator(ring)
        assert np.allclose(np.diag(op.matrix), -4.0)
        off = op.matrix[~np.eye(3, dtype=bool)]
        assert np.all(off == 2.0)

    def test_column_sums_exactly_zero(self):
        rng = np.random.default_rng(10)
        for n in (2, 5, 12):
            rates = markov.random_symmetric_rates(n, rng)
            op = markov.build_master_operator(rates)
            # diagonal entries are the exact float negation of the column sums
            off = op.matrix.copy()
            np.fill_diagonal(off, 0.0)
            assert np.array_equal(np.diag(op.matrix), -off.sum(axis=0))
            # re-summing whole columns reassociates, leaving only rounding dust
            assert np.max(np.abs(op.matrix.sum(axis=0))) < 1e-13 * np.abs(off).max()

    def test_applies_as_rate_equation(self):
        # dp_i/dt = sum_j (r_ij p_j - r_ji p_i), written out by hand
        rates = markov.random_symmetric_rates(4, np.random.default_rng(3))
        op = markov.build_master_operator(rates)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        expected = np.zeros(4)
        r = rates.rates
        for i in range(4):
            for j in range(4):
                if i != j:
                    expected[i] += r[i, j] * p[j] - r[j, i] * p[i]
        assert np.allclose(op.matrix @ p, expected, atol=1e-15)


class TestEvolve:
    def test_equilibrium_fixed_point(self):
        op = markov.build_master_operator(TWO_STATE)
        half = markov.ProbDist([0.5, 0.5])
        for t in (0.1, 1.0, 25.0):
            assert np.allclose(markov.evolve(half, op, t).p, 0.5, atol=1e-12)

    def test_two_state_closed_form_value(self):
        op = markov.build_master_operator(TWO_STATE)
        out = markov.evolve(markov.ProbDist([1.0, 0.0]), op, 0.5)
        assert out.p[0] == pytest.approx(0.6839397205857212, abs=1e-12)
        assert out.p[1] == pytest.approx(0.3160602794142788, abs=1e-12)

    def test_relaxation_limit(self):
        op = markov.build_master_operator(TWO_STATE)
        out = markov.evolve(markov.ProbDist([1.0, 0.0]), op, 50.0)
        assert np.allclose(out.p, 0.5, atol=1e-12)

    def test_t_zero_returns_input(self):
        op = markov.build_master_operator(TWO_STATE)
        p0 = markov.ProbDist([0.7, 0.3])
        assert markov.evolve(p0, op, 0.0) is p0

    def test_negative_time_rejected(self):
        op = markov.build_master_operator(TWO_STATE)
        with pytest.raises(InvalidInputError):
            markov.evolve(markov.ProbDist([1.0, 0.0]), op, -0.1)

    @pytest.mark.parametrize("method", ["expm", "ode"])
    @pytest.mark.parametrize("rate", [0.1, 1.0, 10.0])
    def test_both_methods_match_closed_form(self, method, rate):
        # "expm": evolve, the matrix exponential of the generator, one time at
        # a time; "ode": trajectory, the master equation dp/dt = Lp solved in
        # the eigenbasis of L for all times at once.
        rm = markov.RateMatrix([[0.0, rate], [rate, 0.0]])
        op = markov.build_master_operator(rm)
        p0 = markov.ProbDist([0.9, 0.1])
        ts = (0.05, 0.7, 3.0)
        if method == "expm":
            outs = [markov.evolve(p0, op, t) for t in ts]
        else:
            outs = markov.trajectory(p0, op, ts)
        for t, out in zip(ts, outs):
            assert out.p[0] == pytest.approx(two_state_closed_form(0.9, rate, t), abs=1e-10)

    def test_stiff_generator_agrees_with_trajectory_in_time(self):
        # Rates log-uniform over six decades on a sparse graph, propagated to
        # 1e4 over the largest escape rate: an explicit integrator needs about
        # that many steps, the matrix exponential none of them.
        rng = np.random.default_rng(8)
        n = 100
        mask = np.triu(rng.random((n, n)) < 0.05, 1)
        upper = np.where(mask, 10.0 ** rng.uniform(-3.0, 3.0, (n, n)), 0.0)
        rates = markov.RateMatrix(upper + upper.T)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        t = 1e4 / rates.rates.sum(axis=0).max()
        start = time.perf_counter()
        out = markov.evolve(p0, op, t)
        elapsed = time.perf_counter() - start
        (reference,) = markov.trajectory(p0, op, [t])
        assert np.max(np.abs(out.p - reference.p)) < 1e-10
        assert elapsed < 1.0

    def test_probability_conserved_and_positive(self):
        rng = np.random.default_rng(4)
        rates = markov.random_symmetric_rates(9, rng)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(9)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        for t in (0.01, 0.5, 3.0, 40.0):
            out = markov.evolve(p0, op, t)
            assert abs(out.p.sum() - 1.0) <= 1e-12
            assert np.all(out.p >= 0.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        rates = markov.random_symmetric_rates(6, rng)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(6)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        two_hop = markov.evolve(markov.evolve(p0, op, 0.8), op, 1.4)
        one_hop = markov.evolve(p0, op, 2.2)
        assert np.max(np.abs(two_hop.p - one_hop.p)) < 1e-9

    def test_trajectory_matches_evolve(self):
        rng = np.random.default_rng(6)
        rates = markov.random_symmetric_rates(7, rng)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(7)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        ts = [0.0, 0.2, 1.1, 5.0]
        for t, pt in zip(ts, markov.trajectory(p0, op, ts)):
            assert np.max(np.abs(pt.p - markov.evolve(p0, op, t).p)) < 1e-12


def pairwise_production(p: np.ndarray, r: np.ndarray) -> float:
    # reference: (1/2) sum_ij r_ij (ln p_j - ln p_i)(p_j - p_i), one pair at a time
    total = 0.0
    for i in range(p.size):
        for j in range(p.size):
            if r[i, j] > 0.0:
                total += r[i, j] * (math.log(p[j]) - math.log(p[i])) * (p[j] - p[i])
    return 0.5 * total


class TestShannonEntropy:
    def test_uniform_two_state(self):
        s = markov.shannon_entropy(markov.ProbDist([0.5, 0.5]))
        assert s == pytest.approx(math.log(2.0), abs=1e-15)

    def test_deterministic_state(self):
        assert markov.shannon_entropy(markov.ProbDist([1.0, 0.0, 0.0])) == 0.0

    def test_quarter_three_quarters(self):
        s = markov.shannon_entropy(markov.ProbDist([0.25, 0.75]))
        assert s == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_scales_with_k(self):
        units = UnitSystem(k=2.0)
        s = markov.shannon_entropy(markov.ProbDist([0.5, 0.5]), units)
        assert s == pytest.approx(2.0 * math.log(2.0), abs=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            raw = rng.dirichlet(np.ones(n))
            s = markov.shannon_entropy(markov.ProbDist(raw / raw.sum()))
            assert -1e-15 <= s <= math.log(n) + 1e-12


class TestEntropyProductionRate:
    def test_uniform_gives_zero(self):
        rates = markov.random_symmetric_rates(5, np.random.default_rng(9))
        assert markov.entropy_production_rate(markov.ProbDist.uniform(5), rates) == 0.0

    def test_two_state_value(self):
        rate = markov.entropy_production_rate(markov.ProbDist([0.9, 0.1]), TWO_STATE)
        assert rate == pytest.approx(1.7577796618689755, rel=1e-12)
        assert rate == pytest.approx(0.8 * math.log(9.0), rel=1e-12)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            rates = markov.random_symmetric_rates(n, rng)
            raw = np.clip(rng.dirichlet(np.ones(n)), 1e-9, None)
            p = markov.ProbDist(raw / raw.sum())
            assert markov.entropy_production_rate(p, rates) >= -1e-12

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_generator_form_matches_pairwise_sum(self, n):
        rng = np.random.default_rng(n)
        rates = markov.random_symmetric_rates(n, rng)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        ts = np.linspace(0.0, 25.0 / -op.spectrum[0][-2], 6)
        report = markov.verify_h_theorem(rates, p0, ts)
        for sample, production in zip(markov.trajectory(p0, op, ts), report.production_rate):
            reference = pairwise_production(sample.p, rates.rates)
            assert abs(markov.entropy_production_rate(sample, rates) - reference) < 1e-12
            assert abs(production - reference) < 1e-12

    def test_zero_probability_with_rate_diverges(self):
        with pytest.raises(DivergenceError):
            markov.entropy_production_rate(markov.ProbDist([1.0, 0.0]), TWO_STATE)

    def test_zero_probability_without_rate_is_fine(self):
        # state 2 is isolated, so its zero probability is harmless
        rates = markov.RateMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        p = markov.ProbDist([0.5, 0.5, 0.0])
        assert markov.entropy_production_rate(p, rates) == 0.0

    def test_matches_finite_difference_of_closed_form(self):
        # centered difference of the analytic two-state entropy at t = 0
        delta = 1e-5
        p_plus = two_state_closed_form(0.9, 1.0, delta)
        p_minus = two_state_closed_form(0.9, 1.0, -delta)

        def entropy(p1):
            return -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))

        fd = (entropy(p_plus) - entropy(p_minus)) / (2 * delta)
        rate = markov.entropy_production_rate(markov.ProbDist([0.9, 0.1]), TWO_STATE)
        assert abs(rate - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_matches_finite_difference_along_trajectory(self):
        rng = np.random.default_rng(12)
        rates = markov.random_symmetric_rates(6, rng)
        op = markov.build_master_operator(rates)
        raw = np.clip(rng.dirichlet(np.ones(6)), 1e-4, None)
        p0 = markov.ProbDist(raw / raw.sum())
        delta = 1e-5
        for t in (0.1, 0.4, 1.0):
            rate = markov.entropy_production_rate(markov.evolve(p0, op, t), rates)
            s_plus = markov.shannon_entropy(markov.evolve(p0, op, t + delta))
            s_minus = markov.shannon_entropy(markov.evolve(p0, op, t - delta))
            fd = (s_plus - s_minus) / (2 * delta)
            assert abs(rate - fd) / max(abs(fd), 1e-12) < 1e-6


class TestEquilibrium:
    def test_symmetric_is_uniform(self):
        rates = markov.random_symmetric_rates(4, np.random.default_rng(13))
        eq = markov.equilibrium_distribution(rates)
        assert np.allclose(eq.p, 0.25, atol=1e-12)

    def test_two_state(self):
        eq = markov.equilibrium_distribution(TWO_STATE)
        assert np.allclose(eq.p, 0.5, atol=1e-13)

    def test_null_space_residual_and_long_time_agreement(self):
        rng = np.random.default_rng(14)
        rates = markov.random_symmetric_rates(5, rng)
        op = markov.build_master_operator(rates)
        eq = markov.equilibrium_distribution(rates)
        assert np.max(np.abs(op.matrix @ eq.p)) < 1e-12
        min_rate = rates.rates[rates.rates > 0].min()
        raw = np.clip(rng.dirichlet(np.ones(5)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        late = markov.evolve(p0, op, 1e3 / min_rate)
        assert np.max(np.abs(late.p - eq.p)) < 1e-10

    def test_detailed_balance_entrywise(self):
        rng = np.random.default_rng(15)
        for n in (3, 6, 10):
            rates = markov.random_symmetric_rates(n, rng)
            eq = markov.equilibrium_distribution(rates)
            assert markov.detailed_balance_residual(rates, eq) < 1e-12

    def test_fixed_point_of_evolve(self):
        rates = markov.random_symmetric_rates(6, np.random.default_rng(16))
        op = markov.build_master_operator(rates)
        eq = markov.equilibrium_distribution(rates)
        for t in (0.5, 5.0, 50.0):
            assert np.max(np.abs(markov.evolve(eq, op, t).p - eq.p)) < 1e-12

    def test_disconnected_graph_rejected(self):
        rates = markov.RateMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
        with pytest.raises(NonUniqueEquilibriumError):
            markov.equilibrium_distribution(rates)


class TestVerifyHTheorem:
    def test_two_state_endpoints(self):
        report = markov.verify_h_theorem(
            TWO_STATE, markov.ProbDist([0.99, 0.01]), np.linspace(0.0, 20.0, 40)
        )
        assert report.entropy[0] == pytest.approx(0.05600153435484734, abs=1e-12)
        assert report.entropy[-1] == pytest.approx(math.log(2.0), abs=1e-10)
        assert report.monotone

    def test_equilibrium_start_is_flat(self):
        rates = markov.random_symmetric_rates(5, np.random.default_rng(17))
        eq = markov.equilibrium_distribution(rates)
        report = markov.verify_h_theorem(rates, eq, np.linspace(0.0, 5.0, 10))
        assert np.max(np.abs(report.entropy - report.entropy[0])) < 1e-12
        assert np.max(np.abs(report.production_rate)) < 1e-12
        assert report.monotone

    def test_random_sweep_verdicts(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(3, 21))
            rates = markov.random_symmetric_rates(n, rng)
            raw = np.clip(rng.dirichlet(np.ones(n)), 1e-9, None)
            p0 = markov.ProbDist(raw / raw.sum())
            report = markov.verify_h_theorem(rates, p0, np.linspace(0.0, 10.0, 15))
            assert report.monotone
            assert report.min_production >= -1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            markov.verify_h_theorem(
                markov.random_symmetric_rates(3, np.random.default_rng(19)),
                markov.ProbDist([0.5, 0.5]),
                [0.0, 1.0],
            )

    def test_boundary_p0_rejected(self):
        with pytest.raises(InvalidInputError):
            markov.verify_h_theorem(TWO_STATE, markov.ProbDist([1.0, 0.0]), [0.0, 1.0])


class TestFileIngestion:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("0 1.5 0.25\n1.5 0 2\n0.25 2 0\n")
        rates = markov.rate_matrix_from_text(path)
        assert rates.rates[0, 1] == 1.5 and rates.rates[2, 0] == 0.25

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"rates": [[0, 3], [3, 0]]}))
        rates = markov.rate_matrix_from_json(path)
        assert rates.rates[0, 1] == 3.0

    def test_text_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 0\n")
        with pytest.raises(InvalidInputError):
            markov.rate_matrix_from_text(path)

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))
        with pytest.raises(InvalidInputError):
            markov.rate_matrix_from_json(path)

    def test_malformed_text(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0 1\nx 0\n")
        with pytest.raises(InvalidInputError):
            markov.rate_matrix_from_text(path)


class TestReportEmission:
    def test_csv_columns(self, tmp_path):
        report = markov.verify_h_theorem(
            TWO_STATE, markov.ProbDist([0.9, 0.1]), np.linspace(0.0, 3.0, 5)
        )
        path = tmp_path / "report.csv"
        write_csv(path, report.CSV_HEADER, report.to_rows())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,S,dSdt,dist_to_eq"
        assert len(lines) == 6

    def test_verdicts(self):
        report = markov.verify_h_theorem(
            TWO_STATE, markov.ProbDist([0.9, 0.1]), np.linspace(0.0, 3.0, 5)
        )
        assert report.verdicts() == {"entropy_monotone": True, "production_nonnegative": True}
        assert all(type(v) is bool for v in report.verdicts().values())
