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


@dataclass(frozen=True)
class Grid:
    """Complex amplitudes on the points origin + j*spacing, normalized on the grid.

    A position wavefunction psi(x_j) and its momentum counterpart phi(p_k)
    are both Grids.
    """

    origin: float
    spacing: float
    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amps, dtype=complex)
        if a.ndim != 1:
            raise InvalidInputError("grid amplitudes must be one-dimensional")
        if a.size < MIN_GRID_POINTS:
            raise InvalidInputError(f"grid needs at least {MIN_GRID_POINTS} points")
        require_positive("grid spacing", self.spacing)
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("grid amplitudes contain non-finite values")
        norm = np.sum(np.abs(a) ** 2) * self.spacing
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidInputError(f"wavefunction not normalized: sum |amp|^2 d = {norm!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def n(self) -> int:
        return self.amps.size

    @property
    def points(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _normalized(source: str, origin: float, spacing: float, amps: np.ndarray) -> Grid:
    """Grid of amps / sqrt(sum |amps|^2 * spacing), dividing the complex amps in place.

    source names the input in the error for a zero or non-finite norm.
    """
    with np.errstate(over="ignore"):
        norm = float(np.sum(np.abs(amps) ** 2) * spacing)
    if not (norm > 0 and math.isfinite(norm)):
        raise InvalidInputError(f"{source} has zero or non-finite amplitudes on the grid")
    amps /= math.sqrt(norm)
    return Grid(origin, spacing, amps)


@dataclass(frozen=True)
class GaussianState:
    """Position/momentum standard-deviation pair of a Gaussian packet."""

    sigma_x: float
    sigma_p: float

    def __post_init__(self) -> None:
        require_positive("sigma_x", self.sigma_x)
        require_positive("sigma_p", self.sigma_p)


def to_momentum(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> Grid:
    """hbar-scaled Fourier transform onto the conjugate grid dp = h/(N*dx).

    The momentum grid is centered (p_k = (k - N//2) * dp) and the scaling
    makes Parseval exact: sum |phi|^2 dp == sum |psi|^2 dx.
    """
    hbar = units.hbar
    n = psi.n
    m = n // 2
    dp = 2.0 * math.pi * hbar / (n * psi.spacing)
    ps = (np.arange(n) - m) * dp
    j = np.arange(n)
    pre_phase = np.exp(2j * math.pi * m * j / n)
    spectrum = np.fft.fft(psi.amps * pre_phase)
    scale = psi.spacing / math.sqrt(2.0 * math.pi * hbar)
    amps = scale * np.exp(-1j * ps * psi.origin / hbar) * spectrum
    return Grid(origin=float(ps[0]), spacing=dp, amps=amps)


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


def joint_information(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> float:
    """I(x) + I(p) on the grid; always >= ln(he/2) up to discretization slack."""
    return entropy_report(psi, units)["joint"]


def thermodynamic_entropy(phi: Grid, units: UnitSystem = NATURAL_UNITS) -> float:
    """k times the momentum information: S = -k int |phi|^2 ln |phi|^2 dp."""
    return units.k * differential_entropy(phi.density(), phi.spacing)


def entropy_report(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> dict:
    """I_x, I_p, their sum, the bound, and whether the bound is satisfied."""
    phi = to_momentum(psi, units)
    i_x = differential_entropy(psi.density(), psi.spacing)
    i_p = differential_entropy(phi.density(), phi.spacing)
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
    span: float | None = None,
) -> Grid:
    """Sampled Gaussian packet, renormalized on the grid.

    The default span of +-8 sigma_x around the center keeps truncated tail
    mass near machine epsilon. Pass a larger span to refine the conjugate
    momentum grid (dp = h / span).
    """
    require_positive("sigma_x", sigma_x)
    variance = 2.0 * math.pi * (sigma_x * sigma_x)
    if not (variance > 0 and math.isfinite(variance)):
        raise InvalidInputError(f"sigma_x = {sigma_x!r} gives a zero or non-finite variance")
    width = span if span is not None else 16.0 * sigma_x
    dx = width / n
    x0 = center - (n // 2) * dx
    xs = x0 + dx * np.arange(n)
    amps = variance**-0.25 * np.exp(
        -((xs - center) ** 2) / (4.0 * sigma_x**2)
        + 1j * momentum * (xs - center) / units.hbar
    )
    return _normalized("packet", x0, dx, amps)


def box_ground_state(length: float, n: int = 8192) -> Grid:
    """Ground-state sine profile of a hard box [0, L], zero-padded around it.

    The padding (total span 16 L) refines the momentum grid so the slowly
    decaying |phi|^2 tail is resolved. The default n is twice the Gaussian
    default: the kinked box edges converge only as dx^2.
    """
    require_positive("length", length)
    width = 16.0 * length
    dx = width / n
    if not np.finfo(float).tiny <= dx < math.inf:
        raise InvalidInputError(f"length = {length!r} puts the grid spacing {dx!r} out of range")
    x0 = -(width - length) / 2.0
    xs = x0 + dx * np.arange(n)
    amps = np.where(
        (xs >= 0.0) & (xs <= length),
        np.sqrt(2.0 / length) * np.sin(np.pi * np.clip(xs, 0.0, length) / length),
        0.0,
    ).astype(complex)
    return _normalized("box", x0, dx, amps)


def wavefunction_from_csv(path: str | Path) -> Grid:
    """Load a wavefunction from a CSV with header columns x, re, im.

    The x column must be uniformly spaced. The amplitudes are always
    renormalized on the grid.
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
    return _normalized(str(path), float(x[0]), dx, np.asarray(res) + 1j * np.asarray(ims))
