"""Master-equation engine: generator assembly, evolution, entropy, H-theorem."""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from demonlab import cli, markov
from demonlab.errors import InvalidInputError, NonUniqueEquilibriumError
from demonlab.reporting import write_csv
from demonlab.units import UnitSystem

TWO_STATE = markov.RateMatrix([[0.0, 1.0], [1.0, 0.0]])


def two_state_closed_form(p1_initial: float, rate: float, t: float) -> float:
    # independent oracle: p1(t) = 1/2 + (p1(0) - 1/2) e^{-2 r t}
    return 0.5 + (p1_initial - 0.5) * math.exp(-2.0 * rate * t)


def expm_reference(p0: markov.ProbDist, rates: markov.RateMatrix, t: float) -> np.ndarray:
    # independent reference: scipy's Pade scaling-and-squaring exp(L t) applied to p0
    return expm(rates.generator * t) @ p0.p


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


class NoExtraEdges:
    """A seeded Generator whose random() draws are all 0.5, never below the 0.3 that
    adds an edge, so random_symmetric_rates keeps only its spanning tree."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return np.full(size, 0.5)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRandomSymmetricRates:
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_spanning_tree_without_extra_edges(self, n):
        rates = markov.random_symmetric_rates(n, NoExtraEdges(n))
        assert rates.is_connected()
        assert np.count_nonzero(np.triu(rates.rates)) == n - 1

    def test_rates_in_range_and_extra_edges_added(self):
        rates = markov.random_symmetric_rates(60, np.random.default_rng(20))
        edges = rates.rates[np.triu_indices(60, 1)]
        present = edges[edges > 0.0]
        assert present.min() >= 0.5 and present.max() < 2.0
        # 59 tree edges plus about 0.3 of the other 1711 pairs
        assert 0.25 < (present.size - 59) / 1711 < 0.35


class TestGenerator:
    def test_built_once_per_rate_matrix(self):
        rates = markov.random_symmetric_rates(5, np.random.default_rng(21))
        assert rates.generator is rates.generator
        assert rates.spectrum is rates.spectrum
        assert not rates.generator.flags.writeable
        assert not any(a.flags.writeable for a in rates.spectrum)

    def test_two_state_unit_rate(self):
        assert np.array_equal(TWO_STATE.generator, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_all_zero_rates(self):
        rates = markov.RateMatrix(np.zeros((3, 3)))
        assert np.array_equal(rates.generator, np.zeros((3, 3)))

    def test_three_state_ring(self):
        ring = markov.RateMatrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        assert np.allclose(np.diag(ring.generator), -4.0)
        off = ring.generator[~np.eye(3, dtype=bool)]
        assert np.all(off == 2.0)

    def test_column_sums_exactly_zero(self):
        rng = np.random.default_rng(10)
        for n in (2, 5, 12):
            rates = markov.random_symmetric_rates(n, rng)
            # diagonal entries are the exact float negation of the column sums
            off = rates.generator.copy()
            np.fill_diagonal(off, 0.0)
            assert np.array_equal(np.diag(rates.generator), -off.sum(axis=0))
            # re-summing whole columns reassociates, leaving only rounding dust
            assert np.max(np.abs(rates.generator.sum(axis=0))) < 1e-13 * np.abs(off).max()

    def test_applies_as_rate_equation(self):
        # dp_i/dt = sum_j (r_ij p_j - r_ji p_i), written out by hand
        rates = markov.random_symmetric_rates(4, np.random.default_rng(3))
        p = np.array([0.4, 0.3, 0.2, 0.1])
        expected = np.zeros(4)
        r = rates.rates
        for i in range(4):
            for j in range(4):
                if i != j:
                    expected[i] += r[i, j] * p[j] - r[j, i] * p[i]
        assert np.allclose(rates.generator @ p, expected, atol=1e-15)


class TestEvolve:
    def test_equilibrium_fixed_point(self):
        half = markov.ProbDist([0.5, 0.5])
        for t in (0.1, 1.0, 25.0):
            assert np.allclose(markov.evolve(half, TWO_STATE, t).p, 0.5, atol=1e-12)

    def test_two_state_closed_form_value(self):
        out = markov.evolve(markov.ProbDist([1.0, 0.0]), TWO_STATE, 0.5)
        assert out.p[0] == pytest.approx(0.6839397205857212, abs=1e-12)
        assert out.p[1] == pytest.approx(0.3160602794142788, abs=1e-12)

    def test_relaxation_limit(self):
        out = markov.evolve(markov.ProbDist([1.0, 0.0]), TWO_STATE, 50.0)
        assert np.allclose(out.p, 0.5, atol=1e-12)

    def test_t_zero_returns_input(self):
        p0 = markov.ProbDist([0.7, 0.3])
        assert markov.evolve(p0, TWO_STATE, 0.0) is p0

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            markov.evolve(markov.ProbDist([1.0, 0.0]), TWO_STATE, -0.1)

    @pytest.mark.parametrize("method", ["expm", "evolve"])
    @pytest.mark.parametrize("rate", [0.1, 1.0, 10.0])
    def test_both_methods_match_closed_form(self, method, rate):
        # "expm": the scipy reference that the other evolve tests trust;
        # "evolve": the library, which must also agree with that reference.
        rm = markov.RateMatrix([[0.0, rate], [rate, 0.0]])
        p0 = markov.ProbDist([0.9, 0.1])
        for t in (0.05, 0.7, 3.0):
            reference = expm_reference(p0, rm, t)
            out = reference if method == "expm" else markov.evolve(p0, rm, t).p
            assert out[0] == pytest.approx(two_state_closed_form(0.9, rate, t), abs=1e-10)
            assert np.max(np.abs(out - reference)) < 1e-10

    def test_stiff_generator_agrees_with_expm_in_time(self):
        # Rates log-uniform over six decades on a sparse graph, propagated to
        # 1e4 over the largest escape rate: an explicit integrator needs about
        # that many steps, the eigendecomposition none of them.
        rng = np.random.default_rng(8)
        n = 100
        mask = np.triu(rng.random((n, n)) < 0.05, 1)
        upper = np.where(mask, 10.0 ** rng.uniform(-3.0, 3.0, (n, n)), 0.0)
        rates = markov.RateMatrix(upper + upper.T)
        raw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        t = 1e4 / rates.rates.sum(axis=0).max()
        start = time.perf_counter()
        out = markov.evolve(p0, rates, t)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(out.p - expm_reference(p0, rates, t))) < 1e-10
        assert elapsed < 1.0

    @pytest.mark.parametrize("t", [1e20, 1e300])
    @pytest.mark.parametrize("n", [4, 6, 300])
    def test_long_horizon_reaches_the_uniform_equilibrium(self, n, t):
        # eigh leaves the zero eigenvalue near +-1e-15; exp(w t) of that
        # would drain or swell the equilibrium at these horizons.
        rng = np.random.default_rng(n)
        rates = markov.random_symmetric_rates(n, rng)
        raw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        out = markov.evolve(markov.ProbDist(raw / raw.sum()), rates, t)
        assert np.max(np.abs(out.p - 1.0 / n)) < 1e-12

    @pytest.mark.parametrize("t", [1e20, 1e300])
    def test_long_horizon_keeps_each_component_mass(self, t):
        # two components, so two zero eigenvalues: each keeps its own mass
        rates = markov.RateMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
        out = markov.evolve(markov.ProbDist([0.3, 0.0, 0.1, 0.6]), rates, t)
        assert np.allclose(out.p, [0.15, 0.15, 0.35, 0.35], rtol=0.0, atol=1e-12)

    def test_probability_conserved_and_positive(self):
        rng = np.random.default_rng(4)
        rates = markov.random_symmetric_rates(9, rng)
        raw = np.clip(rng.dirichlet(np.ones(9)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        for t in (0.01, 0.5, 3.0, 40.0):
            out = markov.evolve(p0, rates, t)
            assert abs(out.p.sum() - 1.0) <= 1e-12
            assert np.all(out.p >= 0.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        rates = markov.random_symmetric_rates(6, rng)
        raw = np.clip(rng.dirichlet(np.ones(6)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        two_hop = markov.evolve(markov.evolve(p0, rates, 0.8), rates, 1.4)
        one_hop = markov.evolve(p0, rates, 2.2)
        assert np.max(np.abs(two_hop.p - one_hop.p)) < 1e-9

    def test_trajectory_matches_evolve(self):
        rng = np.random.default_rng(6)
        rates = markov.random_symmetric_rates(7, rng)
        raw = np.clip(rng.dirichlet(np.ones(7)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        ts = [0.0, 0.2, 1.1, 5.0]
        for t, pt in zip(ts, markov.trajectory(p0, rates, ts)):
            assert np.max(np.abs(pt.p - expm_reference(p0, rates, t))) < 1e-12
            if t > 0.0:  # evolve(p0, rates, 0) is p0 itself
                (single,) = markov.trajectory(p0, rates, [t])
                assert np.array_equal(markov.evolve(p0, rates, t).p, single.p)


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


def production_rate(p: markov.ProbDist, rates: markov.RateMatrix) -> float:
    """dS/dt at p, as verify_h_theorem reports it for its sample at t = 0."""
    return float(markov.verify_h_theorem(rates, p, [0.0]).production_rate[0])


class TestEntropyProductionRate:
    def test_uniform_gives_zero(self):
        rates = markov.random_symmetric_rates(5, np.random.default_rng(9))
        assert abs(production_rate(markov.ProbDist.uniform(5), rates)) < 1e-24

    def test_two_state_value(self):
        rate = production_rate(markov.ProbDist([0.9, 0.1]), TWO_STATE)
        assert rate == pytest.approx(1.7577796618689755, rel=1e-12)
        assert rate == pytest.approx(0.8 * math.log(9.0), rel=1e-12)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            rates = markov.random_symmetric_rates(n, rng)
            raw = np.clip(rng.dirichlet(np.ones(n)), 1e-9, None)
            p = markov.ProbDist(raw / raw.sum())
            assert production_rate(p, rates) >= -1e-12

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_generator_form_matches_pairwise_sum(self, n):
        rng = np.random.default_rng(n)
        rates = markov.random_symmetric_rates(n, rng)
        raw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        ts = np.linspace(0.0, 25.0 / -rates.spectrum[0][-2], 6)
        report = markov.verify_h_theorem(rates, p0, ts)
        for sample, production in zip(markov.trajectory(p0, rates, ts), report.production_rate):
            reference = pairwise_production(sample.p, rates.rates)
            assert abs(production - reference) < 1e-12

    def test_matches_finite_difference_of_closed_form(self):
        # centered difference of the analytic two-state entropy at t = 0
        delta = 1e-5
        p_plus = two_state_closed_form(0.9, 1.0, delta)
        p_minus = two_state_closed_form(0.9, 1.0, -delta)

        def entropy(p1):
            return -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))

        fd = (entropy(p_plus) - entropy(p_minus)) / (2 * delta)
        rate = production_rate(markov.ProbDist([0.9, 0.1]), TWO_STATE)
        assert abs(rate - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_matches_finite_difference_along_trajectory(self):
        rng = np.random.default_rng(12)
        rates = markov.random_symmetric_rates(6, rng)
        raw = np.clip(rng.dirichlet(np.ones(6)), 1e-4, None)
        p0 = markov.ProbDist(raw / raw.sum())
        delta = 1e-5
        report = markov.verify_h_theorem(rates, p0, [0.1, 0.4, 1.0])
        for t, rate in zip(report.times, report.production_rate):
            s_plus = markov.shannon_entropy(markov.evolve(p0, rates, t + delta))
            s_minus = markov.shannon_entropy(markov.evolve(p0, rates, t - delta))
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
        eq = markov.equilibrium_distribution(rates)
        assert np.max(np.abs(rates.generator @ eq.p)) < 1e-12
        min_rate = rates.rates[rates.rates > 0].min()
        raw = np.clip(rng.dirichlet(np.ones(5)), 1e-6, None)
        p0 = markov.ProbDist(raw / raw.sum())
        late = markov.evolve(p0, rates, 1e3 / min_rate)
        assert np.max(np.abs(late.p - eq.p)) < 1e-10

    def test_detailed_balance_entrywise(self):
        rng = np.random.default_rng(15)
        for n in (3, 6, 10):
            rates = markov.random_symmetric_rates(n, rng)
            eq = markov.equilibrium_distribution(rates)
            assert markov.detailed_balance_residual(rates, eq) < 1e-12

    def test_fixed_point_of_evolve(self):
        rates = markov.random_symmetric_rates(6, np.random.default_rng(16))
        eq = markov.equilibrium_distribution(rates)
        for t in (0.5, 5.0, 50.0):
            assert np.max(np.abs(markov.evolve(eq, rates, t).p - eq.p)) < 1e-12

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
        verdicts = {name: c.passed for name, c in report.verdicts().items()}
        assert verdicts == {"entropy_monotone": True, "production_nonnegative": True}
        assert all(type(v) is bool for v in verdicts.values())


class TestVerdictsInUnitsOfK:
    def test_a_large_k_leaves_every_correct_run_passing(self, capsys):
        # dS/k between samples reads down to -7e-16 from rounding; times k = 1e4, that was
        # below a fixed -1e-12 on 17 of these 20 seeds
        codes = [cli.main(["h-theorem", "--k", "1e4", "--seed", str(seed)]) for seed in range(20)]
        capsys.readouterr()
        assert codes == [0] * 20

    @pytest.mark.parametrize("k", [1.380649e-23, 1e-4, 1.0, 1e4, 1e20])
    def test_the_verdicts_do_not_depend_on_k(self, k):
        rates = markov.random_symmetric_rates(8, np.random.default_rng(3))
        p0 = markov.ProbDist(np.random.default_rng(4).dirichlet(np.ones(8)))
        grid = np.linspace(0.0, 25.0 / markov.spectral_gap(rates), 200)
        reference = markov.verify_h_theorem(rates, p0, grid)
        report = markov.verify_h_theorem(rates, p0, grid, UnitSystem(k=k))
        verdicts = [{name: c.passed for name, c in r.verdicts().items()}
                    for r in (report, reference)]
        assert verdicts == 2 * [{"entropy_monotone": True, "production_nonnegative": True}]
        assert np.array_equal(report.entropy, k * reference.entropy)

    def test_a_falling_entropy_fails_at_any_k(self, monkeypatch):
        # S(t) run backwards: the planted fall is of order 1 in units of k
        rates = markov.random_symmetric_rates(8, np.random.default_rng(3))
        p0 = markov.ProbDist(np.random.default_rng(4).dirichlet(np.ones(8)))
        grid = np.linspace(0.0, 5.0, 50)
        entropies = markov._entropies
        monkeypatch.setattr(markov, "_entropies", lambda p, k: -entropies(p, k))
        for k in (1.380649e-23, 1.0, 1e20):
            assert not markov.verify_h_theorem(rates, p0, grid, UnitSystem(k=k)).monotone
