"""Entropic uncertainty for Fourier-conjugate position/momentum densities.

The joint information of a normalized wavefunction and its momentum
counterpart,

    I(x) + I(p) = -int |psi|^2 ln |psi|^2 dx - int |phi|^2 ln |phi|^2 dp,

is bounded below by ln(h e / 2), with equality exactly for
minimum-uncertainty Gaussians (sigma_x * sigma_p = hbar / 2). The momentum
wavefunction is the hbar-scaled Fourier transform

    phi(p) = (2*pi*hbar)^(-1/2) int psi(x) exp(-i p x / hbar) dx,

discretized here so that Parseval holds exactly on the grid (dp * N * dx =
h). Differential entropies are reported in nats relative to the unit
length/momentum of the active UnitSystem; individual values shift under
unit changes, but the joint sum against ln(he/2) is invariant, and that sum
is the physical object.

Everything is pure and value-semantic; scratch buffers are per-call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, require_positive
from .units import NATURAL_UNITS, UnitSystem

#: Hard floor on grid sizes for entropy work; coarser grids alias badly.
MIN_GRID_POINTS = 64

_NORM_TOL = 1e-10


def _check_grid(amps: np.ndarray, spacing: float, kind: str) -> np.ndarray:
    a = np.array(amps, dtype=complex)
    if a.ndim != 1:
        raise InvalidInputError(f"{kind} amplitudes must be one-dimensional")
    if a.size < MIN_GRID_POINTS:
        raise InvalidInputError(f"{kind} grid needs at least {MIN_GRID_POINTS} points")
    require_positive(f"{kind} spacing", spacing)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{kind} amplitudes contain non-finite values")
    norm = np.sum(np.abs(a) ** 2) * spacing
    if abs(norm - 1.0) > _NORM_TOL:
        raise InvalidInputError(f"{kind} wavefunction not normalized: sum |amp|^2 d = {norm!r}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WavefunctionGrid:
    """Complex amplitudes psi(x_j) on x_j = x0 + j*dx, normalized on the grid."""

    x0: float
    dx: float
    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _check_grid(self.amps, self.dx, "position"))

    @property
    def n(self) -> int:
        return self.amps.size

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class MomentumGrid:
    """Complex amplitudes phi(p_k) on p_k = p0 + k*dp, normalized on the grid."""

    p0: float
    dp: float
    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _check_grid(self.amps, self.dp, "momentum"))

    @property
    def n(self) -> int:
        return self.amps.size

    @property
    def ps(self) -> np.ndarray:
        return self.p0 + self.dp * np.arange(self.n)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class GaussianState:
    """Position/momentum standard-deviation pair of a Gaussian packet."""

    sigma_x: float
    sigma_p: float

    def __post_init__(self) -> None:
        require_positive("sigma_x", self.sigma_x)
        require_positive("sigma_p", self.sigma_p)

    def uncertainty_product(self) -> float:
        return self.sigma_x * self.sigma_p

    def is_minimum_uncertainty(self, units: UnitSystem = NATURAL_UNITS, rtol: float = 1e-12) -> bool:
        """True iff sigma_x*sigma_p equals hbar/2 to relative tolerance rtol."""
        target = 0.5 * units.hbar
        return abs(self.uncertainty_product() - target) <= rtol * target


def to_momentum(psi: WavefunctionGrid, units: UnitSystem = NATURAL_UNITS) -> MomentumGrid:
    """hbar-scaled Fourier transform onto the conjugate grid dp = h/(N*dx).

    The momentum grid is centered (p_k = (k - N//2) * dp) and the scaling
    makes Parseval exact: sum |phi|^2 dp == sum |psi|^2 dx.
    """
    hbar = units.hbar
    n = psi.n
    m = n // 2
    dp = 2.0 * math.pi * hbar / (n * psi.dx)
    ps = (np.arange(n) - m) * dp
    j = np.arange(n)
    pre_phase = np.exp(2j * math.pi * m * j / n)
    spectrum = np.fft.fft(psi.amps * pre_phase)
    amps = (psi.dx / math.sqrt(2.0 * math.pi * hbar)) * np.exp(-1j * ps * psi.x0 / hbar) * spectrum
    return MomentumGrid(p0=float(ps[0]), dp=dp, amps=amps)


def to_position(
    phi: MomentumGrid, units: UnitSystem = NATURAL_UNITS, x0: float | None = None
) -> WavefunctionGrid:
    """Inverse transform; pass the original x0 to land on the original grid."""
    hbar = units.hbar
    n = phi.n
    dx = 2.0 * math.pi * hbar / (n * phi.dp)
    if x0 is None:
        x0 = -(n // 2) * dx
    ps = phi.ps
    g = phi.amps * np.exp(1j * ps * x0 / hbar)
    j = np.arange(n)
    post_phase = np.exp(1j * phi.p0 * j * dx / hbar)
    amps = (phi.dp / math.sqrt(2.0 * math.pi * hbar)) * post_phase * n * np.fft.ifft(g)
    return WavefunctionGrid(x0=x0, dx=dx, amps=amps)


def differential_entropy(density: np.ndarray, spacing: float) -> float:
    """Riemann sum of -rho ln rho for a normalized sampled density (0 ln 0 = 0)."""
    rho = np.asarray(density, dtype=float)
    if rho.ndim != 1:
        raise InvalidInputError("density must be one-dimensional")
    require_positive("spacing", spacing)
    if np.any(rho < 0) or not np.all(np.isfinite(rho)):
        raise InvalidInputError("density must be finite and nonnegative")
    total = rho.sum() * spacing
    if abs(total - 1.0) > 1e-8:
        raise InvalidInputError(f"density not normalized: integral = {total!r}")
    pos = rho[rho > 0.0]
    return float(-np.sum(pos * np.log(pos)) * spacing)


def gaussian_information(sigma: float) -> float:
    """Closed-form differential entropy of a Gaussian: (1/2) ln(2 pi sigma^2 e)."""
    require_positive("sigma", sigma)
    return 0.5 * math.log(2.0 * math.pi * sigma * sigma * math.e)


def qiur_bound(units: UnitSystem = NATURAL_UNITS) -> float:
    """Lower bound ln(h e / 2) on the joint position+momentum information."""
    return math.log(units.h) + 1.0 - math.log(2.0)


def joint_information(psi: WavefunctionGrid, units: UnitSystem = NATURAL_UNITS) -> float:
    """I(x) + I(p) on the grid; always >= ln(he/2) up to discretization slack."""
    return entropy_report(psi, units)["joint"]


def thermodynamic_entropy(phi: MomentumGrid, units: UnitSystem = NATURAL_UNITS) -> float:
    """k times the momentum information: S = -k int |phi|^2 ln |phi|^2 dp."""
    return units.k * differential_entropy(phi.density(), phi.dp)


def entropy_report(psi: WavefunctionGrid, units: UnitSystem = NATURAL_UNITS) -> dict:
    """I_x, I_p, their sum, the bound, and whether the bound is satisfied."""
    phi = to_momentum(psi, units)
    i_x = differential_entropy(psi.density(), psi.dx)
    i_p = differential_entropy(phi.density(), phi.dp)
    bound = qiur_bound(units)
    joint = i_x + i_p
    return {
        "I_x": i_x,
        "I_p": i_p,
        "joint": joint,
        "bound": bound,
        "satisfied": bool(joint >= bound - 1e-3),
    }


def gaussian_packet(
    sigma_x: float,
    units: UnitSystem = NATURAL_UNITS,
    center: float = 0.0,
    momentum: float = 0.0,
    n: int = 4096,
    n_sigma: float = 8.0,
    span: float | None = None,
) -> WavefunctionGrid:
    """Sampled Gaussian packet, renormalized on the grid.

    The default span of +-8 sigma_x around the center keeps truncated tail
    mass near machine epsilon. Pass a larger span to refine the conjugate
    momentum grid (dp = h / span).
    """
    require_positive("sigma_x", sigma_x)
    variance = 2.0 * math.pi * (sigma_x * sigma_x)
    if not (variance > 0 and math.isfinite(variance)):
        raise InvalidInputError(f"sigma_x = {sigma_x!r} gives a zero or non-finite variance")
    width = span if span is not None else 2.0 * n_sigma * sigma_x
    dx = width / n
    x0 = center - (n // 2) * dx
    xs = x0 + dx * np.arange(n)
    amps = variance**-0.25 * np.exp(
        -((xs - center) ** 2) / (4.0 * sigma_x**2)
        + 1j * momentum * (xs - center) / units.hbar
    )
    norm = float(np.sum(np.abs(amps) ** 2) * dx)
    if not (norm > 0 and math.isfinite(norm)):
        raise InvalidInputError("packet has zero or non-finite amplitudes on the grid")
    amps /= math.sqrt(norm)
    return WavefunctionGrid(x0=x0, dx=dx, amps=amps)


def box_ground_state(
    length: float, n: int = 8192, span_factor: float = 16.0
) -> WavefunctionGrid:
    """Ground-state sine profile of a hard box [0, L], zero-padded around it.

    The padding (total span = span_factor * L) refines the momentum grid so
    the slowly decaying |phi|^2 tail is resolved. The default n is twice the
    Gaussian default: the kinked box edges converge only as dx^2.
    """
    require_positive("length", length)
    if span_factor < 2:
        raise InvalidInputError("span_factor must be >= 2 to contain the box")
    width = span_factor * length
    dx = width / n
    x0 = -(width - length) / 2.0
    xs = x0 + dx * np.arange(n)
    amps = np.where(
        (xs >= 0.0) & (xs <= length),
        np.sqrt(2.0 / length) * np.sin(np.pi * np.clip(xs, 0.0, length) / length),
        0.0,
    ).astype(complex)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
    return WavefunctionGrid(x0=x0, dx=dx, amps=amps)


def density_moments(values: np.ndarray, density: np.ndarray, spacing: float) -> tuple[float, float]:
    """(mean, standard deviation) of a sampled density."""
    mean = float(np.sum(values * density) * spacing)
    var = float(np.sum((values - mean) ** 2 * density) * spacing)
    return mean, math.sqrt(max(var, 0.0))


def wavefunction_from_csv(path: str | Path, normalize: bool = True) -> WavefunctionGrid:
    """Load a wavefunction from a CSV with header columns x, re, im.

    The x column must be uniformly spaced. By default the amplitudes are
    renormalized on the grid; pass normalize=False to require the file to
    be normalized already.
    """
    xs: list[float] = []
    res: list[float] = []
    ims: list[float] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:3]] != ["x", "re", "im"]:
                raise InvalidInputError(f"{path}: expected header 'x,re,im'")
            for row in reader:
                if not row:
                    continue
                if len(row) < 3:
                    raise ValueError(f"line {reader.line_num} has {len(row)} fields, need 3")
                xs.append(float(row[0]))
                res.append(float(row[1]))
                ims.append(float(row[2]))
    except InvalidInputError:
        raise
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed numeric row: {exc}") from exc
    x = np.asarray(xs)
    if x.size < 2:
        raise InvalidInputError(f"{path}: need at least two samples")
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-9, atol=0.0):
        raise InvalidInputError(f"{path}: x column must be uniformly increasing")
    amps = np.asarray(res) + 1j * np.asarray(ims)
    if normalize:
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
        if norm == 0:
            raise InvalidInputError(f"{path}: zero wavefunction")
        amps = amps / norm
    return WavefunctionGrid(x0=float(x[0]), dx=dx, amps=amps)
