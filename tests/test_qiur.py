"""Entropic uncertainty: transforms, differential entropies, the joint bound."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wavefns import (
    box_mode,
    density_moments,
    is_minimum_uncertainty,
    pre_phase_to_momentum,
    random_mixture,
    to_position,
)

from demonlab import cli, qiur
from demonlab.errors import InvalidInputError
from demonlab.units import NATURAL_UNITS, UnitSystem

HBAR_ONE = UnitSystem(h=2.0 * math.pi)
#: The thread counts of the BLAS builds numpy may link against, as bench/run.py sets them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WAVEFN = Path(__file__).with_name("golden") / "wavefn.csv"


def points(grid: qiur.Grid) -> np.ndarray:
    return grid.origin + grid.spacing * np.arange(grid.n)


def far_grid() -> qiur.Grid:
    """A flat 64-point grid at origin 1e306 with spacing 1e-5: origin / (N dx) is inf."""
    return qiur.Grid(origin=1e306, spacing=1e-5, amps=np.full(64, complex(1 / math.sqrt(64e-5))))


class TestGrids:
    def test_unnormalized_rejected(self):
        n = 128
        with pytest.raises(InvalidInputError):
            qiur.Grid(origin=0.0, spacing=0.1, amps=np.ones(n, dtype=complex))

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    def test_non_finite_origin_rejected(self, origin):
        amps = np.full(64, complex(1 / math.sqrt(6.4)))
        assert qiur.Grid(origin=0.0, spacing=0.1, amps=amps).n == 64
        message = rf"^grid origin must be finite, got {origin!r}$"
        with pytest.raises(InvalidInputError, match=message):
            qiur.Grid(origin=origin, spacing=0.1, amps=amps)

    def test_too_few_points_rejected(self):
        amps = np.full(32, complex(1.0))
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * 0.1))
        with pytest.raises(InvalidInputError):
            qiur.Grid(origin=0.0, spacing=0.1, amps=amps)

    def test_gaussian_packet_normalized(self):
        psi = qiur.gaussian_packet(1.0)
        assert abs(np.sum(psi.density()) * psi.spacing - 1.0) < 1e-12

    def test_gaussian_packet_takes_no_units(self):
        # the grid does not depend on the units, and a call that passes them fails loudly
        with pytest.raises(TypeError):
            qiur.gaussian_packet(1.0, HBAR_ONE)


    @pytest.mark.parametrize("sigma_x", [1e-300, 1e-170, 1e155, 1e300])
    def test_gaussian_packet_rejects_degenerate_widths(self, sigma_x):
        # the variance 2 pi sigma_x^2 underflows to 0 or overflows to inf
        with pytest.raises(InvalidInputError, match="variance"):
            qiur.gaussian_packet(sigma_x)

    @pytest.mark.parametrize("n", [0, 63])
    def test_builders_check_the_size_before_the_spacing(self, n):
        for build in (qiur.gaussian_packet, qiur.box_ground_state):
            message = rf"^grid points must be in \[64, 4194304\], got {n}$"
            with pytest.raises(InvalidInputError, match=message):
                build(1.0, n=n)

    @pytest.mark.parametrize("length, n", [(1e-305, 4096), (1e307, 4096), (1e-302, 65536)])
    def test_box_rejects_an_overflowing_entropy_sum(self, length, n):
        with pytest.raises(InvalidInputError, match="length"):
            qiur.box_ground_state(length, n=n)

    @pytest.mark.parametrize("length, n", [(1e-303, 4096), (1e304, 4096), (1e-300, 64)])
    def test_box_entropies_finite_just_inside_the_guard(self, length, n):
        report = qiur.entropy_report(qiur.box_ground_state(length, n=n))
        assert all(math.isfinite(report[key]) for key in ("I_x", "I_p", "joint"))


class TestToMomentum:
    def test_gaussian_width_at_hbar_one(self):
        # sigma_x = 1 with hbar = 1 transforms to sigma_p = 1/2
        psi = qiur.gaussian_packet(1.0)
        phi = qiur.to_momentum(psi, HBAR_ONE)
        _, sigma_p = density_moments(points(phi), phi.density(), phi.spacing)
        assert sigma_p == pytest.approx(0.5, abs=1e-6)

    def test_real_even_maps_to_real_even(self):
        psi = qiur.gaussian_packet(1.3)
        phi = qiur.to_momentum(psi)
        assert np.max(np.abs(phi.amps.imag)) < 1e-14
        # compare phi(p) against phi(-p) on the symmetric part of the grid
        m = phi.n // 2
        left = phi.amps.real[1:m][::-1]
        right = phi.amps.real[m + 1 : 2 * m]
        assert np.max(np.abs(left - right)) < 1e-14

    @pytest.mark.parametrize("units", [NATURAL_UNITS, HBAR_ONE], ids=["h1", "hbar1"])
    @pytest.mark.parametrize("n", [64, 65, 4097])
    def test_shift_theorem_equals_the_pre_phase(self, n, units):
        # a cyclic roll by n // 2 of the FFT is the FFT of psi times exp(2 pi i m j / n),
        # for odd n as well; the reference's rounding is below 7e-13 at n = 4097
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * 0.05))
        psi = qiur.Grid(origin=-1.3, spacing=0.05, amps=amps)
        phi, reference = qiur.to_momentum(psi, units), pre_phase_to_momentum(psi, units)
        assert (phi.origin, phi.spacing) == (reference.origin, reference.spacing)
        peak = np.max(np.abs(phi.amps))
        assert np.max(np.abs(phi.amps - reference.amps)) <= 1e-12 * peak

    @pytest.mark.parametrize("n", [4097, 2**20])
    def test_centred_packet_has_a_real_spectrum(self, n):
        # the origin phase is reduced to |t| <= 1/2 turn before the exp, so no
        # rounding of a large argument leaks into the imaginary part
        phi = qiur.to_momentum(qiur.gaussian_packet(1.0, n=n))
        assert np.max(np.abs(phi.amps.imag)) <= 1e-14 * np.max(np.abs(phi.amps))

    def test_half_grid_origin_phase_is_a_sign(self):
        # origin = -(n // 2) dx makes the origin phase exp(i pi (k - m)) = +-1 at every k,
        # also where |p| origin / hbar is 10^5 rad; a broad spectrum shows any rounding there
        n, dx = 2**16, 0.01
        rng = np.random.default_rng(7)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
        psi = qiur.Grid(origin=-(n // 2) * dx, spacing=dx, amps=amps)
        phi = qiur.to_momentum(psi)
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^(k - m) with m even
        unphased = np.fft.fftshift(np.fft.fft(psi.amps)) * (dx / math.sqrt(NATURAL_UNITS.h))
        assert np.max(np.abs(phi.amps - signs * unphased)) <= 1e-14 * np.max(np.abs(phi.amps))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = random_mixture(rng)
            phi = qiur.to_momentum(psi)
            assert abs(np.sum(phi.density()) * phi.spacing - 1.0) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        psi = random_mixture(rng)
        phi = qiur.to_momentum(psi)
        back = to_position(phi, x0=psi.origin)
        assert back.spacing == pytest.approx(psi.spacing, rel=1e-12)
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-9

    def test_round_trip_with_units(self):
        psi = random_mixture(np.random.default_rng(2), HBAR_ONE)
        back = to_position(qiur.to_momentum(psi, HBAR_ONE), HBAR_ONE, x0=psi.origin)
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-9

    @pytest.mark.parametrize("build, h", [
        (lambda: qiur.gaussian_packet(1.0), 1e308),  # the extent m dp overflows
        (far_grid, 1.0),  # the turn count m origin / (N dx) overflows
        (far_grid, 1e-10),
    ], ids=["packet-h-1e308", "far-h-1", "far-h-1e-10"])
    def test_a_grid_out_of_float_range_names_h_and_the_spacing(self, build, h):
        with pytest.raises(InvalidInputError) as caught:
            qiur.to_momentum(build(), UnitSystem(h=h))
        assert "UnitSystem(" in str(caught.value) and "position spacing" in str(caught.value)

    def test_a_grid_near_the_float_limit_is_formed(self):
        # extent 2e307 and 64 turns: both finite, though p_k origin overflows
        phi = qiur.to_momentum(qiur.wavefunction_from_csv(WAVEFN), UnitSystem(h=1e307))
        assert np.all(np.isfinite(points(phi))) and phi.origin == pytest.approx(-2e307)
        assert abs(np.sum(phi.density()) * phi.spacing - 1.0) < 1e-10

    @pytest.mark.parametrize("h", [1.0, 1e-10])
    def test_entropy_report_forms_no_origin_phase(self, h):
        report = qiur.entropy_report(far_grid(), UnitSystem(h=h))
        assert all(math.isfinite(report[key]) for key in ("I_x", "I_p", "joint"))


class TestDifferentialEntropy:
    def test_gaussian_closed_form(self):
        psi = qiur.gaussian_packet(1.0)
        value = qiur.differential_entropy(psi.density(), psi.spacing)
        assert value == pytest.approx(1.4189385332046727, abs=1e-4)

    def test_uniform_density(self):
        n = 1000
        length = 1.0
        rho = np.full(n, 1.0 / length)
        assert qiur.differential_entropy(rho, length / n) == pytest.approx(0.0, abs=1e-12)
        length = 2.5
        rho = np.full(n, 1.0 / length)
        value = qiur.differential_entropy(rho, length / n)
        assert value == pytest.approx(math.log(length), abs=1e-12)

    def test_scaling_property(self):
        one = qiur.differential_entropy(*_density(1.0))
        two = qiur.differential_entropy(*_density(2.0))
        assert two - one == pytest.approx(math.log(2.0), abs=1e-4)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInputError):
            qiur.differential_entropy(np.ones(100), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300], ids=["nan", "inf", "negative"])
    def test_refuses_a_non_finite_or_negative_entry(self, bad):
        rho = np.full(100, 0.1)
        rho[37] = bad
        with pytest.raises(InvalidInputError, match=r"^density must be finite and nonnegative$"):
            qiur.differential_entropy(rho, 0.1)

    def test_refuses_a_two_dimensional_density(self):
        with pytest.raises(InvalidInputError, match=r"^density must be one-dimensional$"):
            qiur.differential_entropy(np.full((10, 10), 0.1), 0.1)

    def test_an_overflowing_rho_ln_rho_warns(self):
        # normalized, one point at 1/spacing: 1e307 ln 1e307 leaves float64 range. Only
        # entropy_report, whose peak guard then refuses the state, silences numpy's warning
        rho = np.zeros(64)
        rho[0] = 1e307
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert qiur.differential_entropy(rho, 1e-307) == -math.inf

    def test_a_finite_density_whose_sum_overflows_is_not_normalized(self):
        # the inf total alone does not make an entry non-finite (numpy warns of the overflow)
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInputError, match=r"^density not normalized: integral = "):
                qiur.differential_entropy(np.full(4, 1e308), 1.0)

    def test_an_empty_density_is_not_normalized(self):
        with pytest.raises(InvalidInputError, match=r"^density not normalized: integral = "):
            qiur.differential_entropy(np.array([]), 1.0)

    def test_zero_entries_add_nothing(self):
        rho, spacing = _density(1.0)
        padded = np.concatenate((np.zeros(1000), rho, np.zeros(3)))
        value = qiur.differential_entropy(padded, spacing)
        assert abs(value - qiur.differential_entropy(rho, spacing)) <= 1e-15

    def test_matches_quadrature_oracle(self):
        # independent quadrature of -rho ln rho for sigma = 1.7
        sigma = 1.7

        def integrand(x):
            rho = math.exp(-(x**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
            return -rho * math.log(rho)

        oracle, err = quad(integrand, -12 * sigma, 12 * sigma)
        assert err < 1e-10
        value = qiur.differential_entropy(*_density(sigma))
        assert value == pytest.approx(oracle, abs=1e-6)


def _density(sigma):
    psi = qiur.gaussian_packet(sigma)
    return psi.density(), psi.spacing


class TestGaussianInformation:
    def test_unit_sigma(self):
        assert qiur.gaussian_information(1.0) == pytest.approx(1.4189385332046727, abs=1e-14)

    def test_zero_crossing(self):
        sigma = 1.0 / math.sqrt(2.0 * math.pi * math.e)
        assert qiur.gaussian_information(sigma) == pytest.approx(0.0, abs=1e-14)

    def test_doubling_adds_ln2(self):
        base = qiur.gaussian_information(0.37)
        assert qiur.gaussian_information(0.74) - base == pytest.approx(
            math.log(2.0), abs=1e-13
        )

    def test_invalid_sigma(self):
        with pytest.raises(InvalidInputError):
            qiur.gaussian_information(0.0)
        with pytest.raises(InvalidInputError):
            qiur.gaussian_information(-1.0)


class TestJointInformation:
    def test_minimum_uncertainty_gaussian_saturates(self):
        psi = qiur.gaussian_packet(1.0)
        joint = qiur.entropy_report(psi)["joint"]
        bound = qiur.qiur_bound()
        assert bound == pytest.approx(0.3068528194400547, abs=1e-14)
        assert joint == pytest.approx(bound, abs=1e-3)

    def test_box_ground_state_exceeds(self):
        psi = qiur.box_ground_state(1.0)
        joint = qiur.entropy_report(psi)["joint"]
        assert joint > qiur.qiur_bound() + 0.05

    def test_box_matches_quadrature_oracle(self):
        # independent oracle: quadrature over the analytic densities
        length = 1.0
        hbar = NATURAL_UNITS.hbar
        a = math.pi / length

        def rho_x(x):
            return (2.0 / length) * math.sin(math.pi * x / length) ** 2

        i_x_oracle, _ = quad(lambda x: -rho_x(x) * math.log(max(rho_x(x), 1e-300)), 0, length)

        def rho_p(p):
            k = p / hbar
            if abs(a * a - k * k) < 1e-9:
                return (1.0 / (2.0 * math.pi * hbar)) * (2.0 / length) * length**2 / 4.0
            return (
                (1.0 / (2.0 * math.pi * hbar))
                * (2.0 / length)
                * a
                * a
                * (2.0 + 2.0 * math.cos(k * length))
                / (a * a - k * k) ** 2
            )

        i_p_oracle = 0.0
        edges = [-400, -40, -a * hbar, a * hbar, 40, 400]
        for lo, hi in zip(edges[:-1], edges[1:]):
            part, _ = quad(
                lambda p: -rho_p(p) * math.log(max(rho_p(p), 1e-300)), lo, hi, limit=400
            )
            i_p_oracle += part

        psi = qiur.box_ground_state(length)
        phi = qiur.to_momentum(psi)
        i_x = qiur.differential_entropy(psi.density(), psi.spacing)
        i_p = qiur.differential_entropy(phi.density(), phi.spacing)
        assert i_x == pytest.approx(i_x_oracle, abs=1e-4)
        assert i_p == pytest.approx(i_p_oracle, abs=1e-3)

    def test_squeezing_invariance(self):
        base = qiur.entropy_report(qiur.gaussian_packet(1.0))["joint"]
        for alpha in (0.5, 2.0, 4.0):
            squeezed = qiur.entropy_report(qiur.gaussian_packet(alpha))["joint"]
            assert squeezed == pytest.approx(base, abs=1e-4)

    def test_bound_scales_with_h(self):
        units = UnitSystem(h=7.0)
        assert qiur.qiur_bound(units) == pytest.approx(
            math.log(7.0 * math.e / 2.0), abs=1e-14
        )
        psi = qiur.gaussian_packet(1.0)
        assert qiur.entropy_report(psi, units)["joint"] == pytest.approx(
            qiur.qiur_bound(units), abs=1e-3
        )

    def test_randomized_bound_sweep(self):
        rng = np.random.default_rng(2)
        bound = qiur.qiur_bound()
        for i in range(30):
            psi = box_mode(rng) if i % 3 == 0 else random_mixture(rng)
            joint = qiur.entropy_report(psi)["joint"]
            assert joint >= bound - 1e-3
            if i % 3 == 0:
                # non-Gaussian box modes clear the bound by a margin
                assert joint > bound + 1e-2

    def test_grid_convergence(self):
        for build in (
            lambda n: qiur.gaussian_packet(1.0, n=n),
            lambda n: qiur.box_ground_state(1.0, n=n),
        ):
            rep1 = qiur.entropy_report(build(8192))
            rep2 = qiur.entropy_report(build(16384))
            assert abs(rep1["I_x"] - rep2["I_x"]) < 1e-5
            assert abs(rep1["I_p"] - rep2["I_p"]) < 1e-5


class TestThermodynamicEntropy:
    def test_gaussian_momentum_density(self):
        units = HBAR_ONE
        # sigma_x = 1/2 at hbar = 1 gives sigma_p = 1
        psi = qiur.gaussian_packet(0.5)
        phi = qiur.to_momentum(psi, units)
        s = qiur.thermodynamic_entropy(phi, units)
        assert s == pytest.approx(1.4189385332046727, abs=1e-4)

    def test_linear_in_k(self):
        units = UnitSystem(k=2.0, h=2.0 * math.pi)
        psi = qiur.gaussian_packet(0.5)
        phi = qiur.to_momentum(psi, units)
        assert qiur.thermodynamic_entropy(phi, units) == pytest.approx(
            2.8378770664093455, abs=2e-4
        )

    def test_momentum_squeeze_reduces_entropy_by_k_ln2(self):
        units = HBAR_ONE
        # doubling sigma_x halves sigma_p, lowering S by k ln 2
        narrow = qiur.to_momentum(qiur.gaussian_packet(0.5), units)
        wide = qiur.to_momentum(qiur.gaussian_packet(1.0), units)
        delta = qiur.thermodynamic_entropy(wide, units) - qiur.thermodynamic_entropy(
            narrow, units
        )
        assert delta == pytest.approx(-math.log(2.0), abs=1e-4)


class TestGaussianState:
    def test_minimum_uncertainty_flag(self):
        units = HBAR_ONE
        state = qiur.GaussianState(sigma_x=1.0, sigma_p=0.5)
        assert is_minimum_uncertainty(state, units)
        off = qiur.GaussianState(sigma_x=1.0, sigma_p=0.6)
        assert not is_minimum_uncertainty(off, units)

    def test_positive_spreads_required(self):
        with pytest.raises(InvalidInputError):
            qiur.GaussianState(sigma_x=0.0, sigma_p=1.0)


class TestEntropyReportAndCsv:
    @pytest.mark.parametrize(
        "build, units",
        [
            (lambda: qiur.gaussian_packet(1.0), NATURAL_UNITS),
            (lambda: qiur.box_ground_state(1.0), NATURAL_UNITS),
            (lambda: random_mixture(np.random.default_rng(3)), NATURAL_UNITS),
            (lambda: random_mixture(np.random.default_rng(4), HBAR_ONE, n=4097), HBAR_ONE),
            (lambda: qiur.gaussian_packet(0.7, n=4097), NATURAL_UNITS),
        ],
        ids=["packet", "box", "mixture", "mixture-odd-n", "packet-odd-n"],
    )
    def test_i_p_is_the_entropy_of_the_public_transform(self, build, units):
        # entropy_report reads |phi|^2 without the origin phase; to_momentum applies it
        psi = build()
        phi = qiur.to_momentum(psi, units)
        i_p = qiur.differential_entropy(phi.density(), phi.spacing)
        assert abs(qiur.entropy_report(psi, units)["I_p"] - i_p) <= 1e-13

    def test_report_schema(self, tmp_path):
        rep = qiur.entropy_report(qiur.gaussian_packet(1.0))
        assert set(rep) == {"I_x", "I_p", "joint", "bound", "satisfied"}
        assert rep["satisfied"] is True
        # stable JSON round trip
        path = tmp_path / "report.json"
        path.write_text(json.dumps(rep, sort_keys=True))
        assert json.loads(path.read_text())["satisfied"] is True

    def test_wavefunction_csv_round_trip(self, tmp_path):
        psi = qiur.gaussian_packet(1.0, n=256)
        path = tmp_path / "wf.csv"
        rows = ["x,re,im"]
        rows += [
            f"{float(x)!r},{float(a.real)!r},{float(a.imag)!r}"
            for x, a in zip(points(psi), psi.amps)
        ]
        path.write_text("\n".join(rows) + "\n")
        loaded = qiur.wavefunction_from_csv(path)
        assert loaded.n == psi.n
        assert loaded.origin == psi.origin
        assert loaded.spacing == pytest.approx(psi.spacing, rel=1e-12)
        assert np.max(np.abs(loaded.amps - psi.amps)) < 1e-12

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,0\n")
        with pytest.raises(InvalidInputError) as info:
            qiur.wavefunction_from_csv(path)
        message = str(info.value)
        assert message.count("expected header 'x,re,im'") == 1
        assert message.count(str(path)) == 1 and "malformed" not in message

    def test_csv_all_zero_amplitudes_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("x,re,im\n" + "".join(f"{j / 8},0,0\n" for j in range(64)))
        with pytest.raises(InvalidInputError, match="amplitudes"):
            qiur.wavefunction_from_csv(path)

    def test_csv_nonuniform_spacing(self, tmp_path):
        path = tmp_path / "bad2.csv"
        lines = ["x,re,im"] + [f"{x},1,0" for x in (0.0, 0.1, 0.25, 0.3)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError):
            qiur.wavefunction_from_csv(path)


def traced_peak_mib(call) -> float:
    """The tracemalloc peak, in MiB, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestRealAmplitudes:
    """A real state takes the rfft rows of the split, its complex copy the full FFT."""

    @pytest.mark.parametrize("units", [NATURAL_UNITS, HBAR_ONE], ids=["h1", "hbar1"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: qiur.gaussian_packet(1.0, n=64),
            lambda: qiur.gaussian_packet(1.0, n=4096),
            lambda: qiur.gaussian_packet(0.7, n=4097),
            lambda: qiur.box_ground_state(1.0, n=4096),
        ],
        ids=["packet-64", "packet-4096", "packet-4097", "box-4096"],
    )
    def test_a_real_state_reports_what_its_complex_copy_does(self, build, units):
        real = build()
        copy = qiur.Grid(real.origin, real.spacing, real.amps.astype(complex))
        assert (real.amps.dtype, copy.amps.dtype) == (np.float64, np.complex128)
        got, expected = qiur.entropy_report(real, units), qiur.entropy_report(copy, units)
        assert got["I_x"] == expected["I_x"]
        assert abs(got["I_p"] - expected["I_p"]) <= 1e-15 * (1 + abs(expected["I_p"]))

    @pytest.mark.parametrize("n", [64, 4097])
    def test_to_momentum_of_a_real_state_is_that_of_its_complex_copy(self, n):
        real = qiur.gaussian_packet(0.9, n=n)
        copy = qiur.Grid(real.origin, real.spacing, real.amps.astype(complex))
        assert np.array_equal(qiur.to_momentum(real).amps, qiur.to_momentum(copy).amps)

    def test_builders_hand_over_float64_and_the_csv_complex128(self):
        assert qiur.gaussian_packet(1.0).amps.dtype == np.float64
        assert qiur.box_ground_state(1.0).amps.dtype == np.float64
        assert qiur.wavefunction_from_csv(WAVEFN).amps.dtype == np.complex128

    def test_a_callers_grid_is_a_checked_read_only_copy(self):
        given = np.ones(64)
        grid = qiur.Grid(0.0, 1 / 64, given)
        given[0] = 5.0
        assert grid.amps[0] == 1.0 and not grid.amps.flags.writeable
        assert qiur.Grid(0.0, 1 / 64, [1] * 64).amps.dtype == np.float64
        assert qiur.Grid(0.0, 1 / 64, [1 + 0j] * 64).amps.dtype == np.complex128
        with pytest.raises(InvalidInputError, match="non-finite"):
            qiur.Grid(0.0, 1 / 64, [math.nan] + [1.0] * 63)

    def test_built_grids_are_read_only(self):
        packet = qiur.gaussian_packet(1.0)
        for grid in (packet, qiur.box_ground_state(1.0), qiur.to_momentum(packet)):
            assert not grid.amps.flags.writeable

    def test_a_2_20_point_cli_report_peaks_at_14_mib(self):
        # the 8 MiB packet and the report's stream: 11.5 MiB in all when measured
        argv = ["qiur", "--grid-n", str(2**20)]
        config = cli.resolve_config("qiur", cli.build_parser().parse_args(argv))
        assert traced_peak_mib(lambda: cli.run(config)) <= 14

    def test_a_2_20_point_transform_peaks_at_72_mib(self):
        assert traced_peak_mib(lambda: qiur.to_momentum(qiur.gaussian_packet(1.0, n=2**20))) <= 72


def whole_array_packet(sigma_x: float, n: int) -> np.ndarray:
    """gaussian_packet's amplitudes by whole-array numpy calls, in the same per-element order."""
    dx = 16.0 * sigma_x / n
    amps = np.arange(n, dtype=float)
    amps *= dx
    amps += -(n // 2) * dx
    amps *= amps
    amps /= -4.0 * sigma_x**2
    np.exp(amps, out=amps)
    amps *= (2.0 * math.pi * (sigma_x * sigma_x)) ** -0.25
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))


def whole_array_entropy(rho: np.ndarray, spacing: float) -> float:
    terms = np.maximum(rho, math.ulp(0.0))
    np.log(terms, out=terms)
    terms *= rho
    return float(-terms.sum() * spacing)


def whole_array_report(psi: qiur.Grid, units: UnitSystem) -> tuple[float, float]:
    """(I_x, I_p) by whole-array numpy calls: a real state's half spectrum is mirrored into
    to_momentum's order N//2 .. 1, 0, 1 .. (N-1)//2 and summed as one array."""
    real = not np.iscomplexobj(psi.amps)
    spectrum = np.fft.rfft(psi.amps) if real else np.fft.fftshift(np.fft.fft(psi.amps))
    spectrum *= psi.spacing / math.sqrt(2.0 * math.pi * units.hbar)
    rho = np.abs(spectrum) ** 2
    if real:
        rho = np.concatenate((rho[::-1], rho[1 : psi.n - rho.size + 1]))
    dp = 2.0 * math.pi * units.hbar / (psi.n * psi.spacing)
    return whole_array_entropy(np.abs(psi.amps) ** 2, psi.spacing), whole_array_entropy(rho, dp)


def random_real_state(n: int) -> qiur.Grid:
    amps = np.random.default_rng(n).standard_normal(n)
    return qiur.Grid(-1.0, 0.01, amps / math.sqrt(float(np.sum(amps**2) * 0.01)))


BLOCK_SIZES = [64, 4097, 2**17 + 7, 2**20]
#: Below and above the four-step crossover; gcd(N, 32) of 32, 8, 2 and 1 among them. From
#: 2^19 points up (2^18 for a complex state) the rows come in groups, the last one shorter than
#: the others (2^20: 5, 5, 5, 2 of 17 rows); 32 * 15872 takes groups of rows shorter than BLOCK,
#: as does a complex 2^18; 8 * 125001 takes rows of an odd length in groups of 2, 2, 1.
REFERENCE_SIZES = [64, 65, 4097, 3 * 2**10, 2 * 499979, 999983, 3 * 2**16, 32 * 15872,
                   8 * 125001, *(2**k for k in range(12, 23))]
REFERENCE_STATES = [
    lambda n, units: qiur.gaussian_packet(0.7, n=n),
    lambda n, units: qiur.box_ground_state(1.0, n=n, units=units),
    lambda n, units: random_mixture(np.random.default_rng(n), units, n=n),
]
EPS = float(np.finfo(float).eps)


class TestBlocks:
    """The blocked passes give the bits of whole-array numpy calls, and the four-step momentum
    density agrees with one whole-array FFT within float64 rounding."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_packet_is_the_whole_array_packet(self, n):
        assert np.array_equal(qiur.gaussian_packet(0.7, n=n).amps, whole_array_packet(0.7, n))

    @pytest.mark.parametrize("build", REFERENCE_STATES, ids=["packet", "box", "complex"])
    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_entropy_report_agrees_with_the_whole_array_report(self, n, build):
        # I_x is the same np.sum; I_p takes the four-step FFT and weighted row sums, so it
        # agrees within a bound fixed from float64 beforehand: 4 eps log2 N (1 + |I_p|)
        psi = build(n, NATURAL_UNITS)
        report = qiur.entropy_report(psi)
        i_x, i_p = whole_array_report(psi, NATURAL_UNITS)
        assert report["I_x"] == i_x
        assert abs(report["I_p"] - i_p) <= 4 * EPS * math.log2(n) * (1 + abs(i_p))
        assert report["joint"] == report["I_x"] + report["I_p"]

    @pytest.mark.parametrize("build", [
        lambda n, units: random_real_state(n),
        lambda n, units: random_mixture(np.random.default_rng(n), units, n=n),
    ], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [64, 4097, 2**17 + 7, 2**20])
    def test_entropy_report_agrees_with_the_whole_array_report_at_hbar_one(self, n, build):
        psi = build(n, HBAR_ONE)
        report = qiur.entropy_report(psi, HBAR_ONE)
        i_x, i_p = whole_array_report(psi, HBAR_ONE)
        assert report["I_x"] == i_x
        assert abs(report["I_p"] - i_p) <= 4 * EPS * math.log2(n) * (1 + abs(i_p))

    @pytest.mark.parametrize("n, rows", [
        (64, 64), (2**15 - 32, 2**15 - 32), (2**15, 32), (3 * 2**16, 32), (8 * 125001, 8),
        (4 * 2**18 + 4, 4 * 2**18 + 4), (999983, 999983), (2**22, 32),
    ])
    def test_the_split_takes_gcd_rows_from_the_crossover_up(self, n, rows):
        # a real state's stream holds the rows k1 <= rows/2 of n // rows points each
        stream = qiur._momentum_density(random_real_state(n), NATURAL_UNITS)
        assert sum(rho.size for rho, _ in stream) == (rows // 2 + 1) * (n // rows)

    @pytest.mark.parametrize("n", [64, 4097, 2**17 + 7])
    def test_differential_entropy_is_the_whole_array_sum(self, n):
        psi = random_real_state(n)
        rho = psi.density()
        assert qiur.differential_entropy(rho, psi.spacing) == whole_array_entropy(rho, psi.spacing)

    @pytest.mark.parametrize("n, n1", [(2**15, 32), (2**18, 32), (3 * 2**16, 32), (32 * 15872, 32),
                                       (2**20, 32), (8 * 125001, 8), (2**22, 32)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_the_stream_takes_each_row_once_in_at_most_passes_groups(self, n, n1, real):
        # groups of GROUP points or more, as many as fit up to PASSES, the last one shorter
        # (2^20: 5, 5, 5, 2 of 17 rows); one group, by FFTs, where all rows fit in 2 GROUP
        psi = random_real_state(n)
        if not real:
            psi = qiur.Grid(psi.origin, psi.spacing, psi.amps.astype(complex))
        rows, n2 = (n1 // 2 + 1 if real else n1), n // n1
        groups = [(rho.size // n2, len(range(rho.size)[twice]) // n2)
                  for rho, twice in qiur._momentum_density(psi, NATURAL_UNITS)]
        sizes, doubled = zip(*groups)
        assert sum(sizes) == rows and sum(doubled) == ((n1 + 1) // 2 - 1 if real else 0)
        assert sizes[-1] <= sizes[0] == max(sizes) and len(sizes) <= qiur.PASSES
        assert len(sizes) == 1 if rows * n2 < 2 * qiur.GROUP else sizes[0] * n2 >= qiur.GROUP

    @pytest.mark.parametrize("n", [2**18, 2**20, 2**20 + 64, 393224, 557056, 10**6])
    def test_np_sum_splits_where_the_blocked_sums_split(self, n):
        # I_x and the packet's norm keep np.sum's bits only while numpy's pairwise sum splits n
        # points at n//2 - n//2 % 8; a numpy that sums in another order fails here first
        a = np.random.default_rng(n).random(n)
        half = n // 2 - n // 2 % 8
        assert np.sum(a[:half]) + np.sum(a[half:]) == np.sum(a)

    def test_a_2_20_point_report_peaks_at_4_5_mib(self):
        # one group of 5 rows of 2^15 (2.5 MiB), two row copies as it interleaves (0.5 MiB) and
        # a row of twiddles: 3.4 MiB when measured
        psi = qiur.gaussian_packet(1.0, n=2**20)
        assert traced_peak_mib(lambda: qiur.entropy_report(psi)) <= 4.5

    @pytest.mark.parametrize("real, mib", [(True, 4.5), (False, 6)], ids=["real", "complex"])
    def test_a_2_20_point_momentum_stream_holds_one_group_at_a_time(self, real, mib):
        # a group of 5 rows of 2^15 (2.5 MiB) measured 3.4 MiB in all, a complex state's group
        # of 8 rows (4 MiB) 4.9 MiB; a whole spectrum takes 8.5 and 16 MiB
        psi = qiur.gaussian_packet(1.0, n=2**20)
        if not real:
            psi = qiur.Grid(psi.origin, psi.spacing, psi.amps.astype(complex))
        stream = qiur._momentum_density(psi, NATURAL_UNITS)
        assert traced_peak_mib(lambda: [rho.size for rho, _ in stream]) <= mib

    def test_a_2_20_point_report_grows_a_fresh_process_by_7_5_mb_at_most(self):
        # tracemalloc sees what numpy allocates alone: pocketfft's plans, twiddle tables and
        # copy buffers come from C++ new and malloc, outside Python's hooks. A whole 2^20-point
        # rfft grows the resident set by about 16 MB where it traces 8 MiB, so the bound is on
        # the peak resident set of a fresh process, after the packet is built. It is read as
        # VmHWM (KiB, Linux), not ru_maxrss: a child's ru_maxrss starts at the high-water mark
        # of the process that spawned it, which in a long test run hides any growth here
        code = (
            "from demonlab import qiur\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
            "psi = qiur.gaussian_packet(1.0, n=2**20)\n"
            "before = peak()\n"
            "qiur.entropy_report(psi)\n"
            "print(peak() - before)\n"
        )
        # one BLAS thread, as measured: a BLAS thread's buffers would count toward VmHWM
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert result.returncode == 0, result.stderr
        # 6.2 MB when measured (9.3 MB for the whole spectrum), of which the stream traces 3.4
        assert 0 < int(result.stdout) / 1024 <= 7.5
