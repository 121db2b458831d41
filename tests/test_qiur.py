"""Entropic uncertainty: transforms, differential entropies, the joint bound."""

import json
import math
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

from demonlab import qiur
from demonlab.errors import InvalidInputError
from demonlab.units import NATURAL_UNITS, UnitSystem

HBAR_ONE = UnitSystem(h=2.0 * math.pi)
WAVEFN = Path(__file__).with_name("golden") / "wavefn.csv"


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
        _, sigma_p = density_moments(phi.points, phi.density(), phi.spacing)
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
        assert np.all(np.isfinite(phi.points)) and phi.origin == pytest.approx(-2e307)
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
        joint = qiur.joint_information(psi)
        bound = qiur.qiur_bound()
        assert bound == pytest.approx(0.3068528194400547, abs=1e-14)
        assert joint == pytest.approx(bound, abs=1e-3)

    def test_box_ground_state_exceeds(self):
        psi = qiur.box_ground_state(1.0)
        joint = qiur.joint_information(psi)
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
        base = qiur.joint_information(qiur.gaussian_packet(1.0))
        for alpha in (0.5, 2.0, 4.0):
            squeezed = qiur.joint_information(qiur.gaussian_packet(alpha))
            assert squeezed == pytest.approx(base, abs=1e-4)

    def test_bound_scales_with_h(self):
        units = UnitSystem(h=7.0)
        assert qiur.qiur_bound(units) == pytest.approx(
            math.log(7.0 * math.e / 2.0), abs=1e-14
        )
        psi = qiur.gaussian_packet(1.0)
        assert qiur.joint_information(psi, units) == pytest.approx(
            qiur.qiur_bound(units), abs=1e-3
        )

    def test_randomized_bound_sweep(self):
        rng = np.random.default_rng(2)
        bound = qiur.qiur_bound()
        for i in range(30):
            psi = box_mode(rng) if i % 3 == 0 else random_mixture(rng)
            joint = qiur.joint_information(psi)
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
            for x, a in zip(psi.points, psi.amps)
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
