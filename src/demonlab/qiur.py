"""Entropic uncertainty for Fourier-conjugate position/momentum densities.

The joint information of a normalized wavefunction and its momentum
counterpart,

    I(x) + I(p) = -int |psi|^2 ln |psi|^2 dx - int |phi|^2 ln |phi|^2 dp,

is bounded below by ln(h e / 2), with equality exactly for
minimum-uncertainty Gaussians (sigma_x * sigma_p = hbar / 2). The momentum
wavefunction is the hbar-scaled Fourier transform

    phi(p) = (2*pi*hbar)^(-1/2) int psi(x) exp(-i p x / hbar) dx,

discretized here so that Parseval holds exactly on the grid (dp * N * dx =
h). A real psi has an even |phi|, |phi_{N-k}| = |phi_k|, so its entropy takes a
half-length real FFT. Differential entropies are reported in nats relative to
the unit length/momentum of the active UnitSystem; individual values shift
under unit changes, but the joint sum against ln(he/2) is invariant, and that
sum is the physical object.

The packet build and the entropy passes run on cache-sized blocks of BLOCK points, summed in
numpy's own pairwise order (bit-equal to np.sum); all is pure, with per-call scratch blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NORMAL, InvalidInputError, require_count, require_positive
from .units import NATURAL_UNITS, UnitSystem

#: Grid sizes for entropy work: coarser grids alias badly, finer ones outgrow memory.
MIN_GRID_POINTS, MAX_GRID_POINTS = 64, 2**22
#: Points per block of the elementwise passes: 128 KiB of float64 stays in L2 cache.
BLOCK = 2**14


@dataclass(frozen=True)
class Grid:
    """Real or complex amplitudes on the points origin + j*spacing, normalized on the grid.

    A position wavefunction psi(x_j) and its momentum counterpart phi(p_k)
    are both Grids. Real amplitudes are copied as float64, others as complex128; _owned
    takes as is an array that a builder here or to_momentum made and guarded itself.
    """

    origin: float
    spacing: float
    amps: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        a = self.amps
        if not _owned:
            a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
            if a.ndim != 1:
                raise InvalidInputError("grid amplitudes must be one-dimensional")
            require_count("grid points", a.size, MIN_GRID_POINTS, MAX_GRID_POINTS)
            require_positive("grid spacing", self.spacing)
            if not math.isfinite(self.origin):
                raise InvalidInputError(f"grid origin must be finite, got {self.origin!r}")
            if not np.all(np.isfinite(a)):
                raise InvalidInputError("grid amplitudes contain non-finite values")
            norm = np.sum(np.abs(a) ** 2) * self.spacing
            if abs(norm - 1.0) > 1e-10:
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
        rho = np.abs(self.amps)
        return np.multiply(rho, rho, out=rho)


def _normalized(source: str, spacing: float, amps: np.ndarray) -> np.ndarray:
    """amps / sqrt(sum |amps|^2 * spacing), divided in place; source names the input in the
    error for a zero or non-finite norm, and a finite norm means finite amps."""
    with np.errstate(over="ignore"):
        norm = float(np.sum(np.abs(amps) ** 2) * spacing)
    amps /= math.sqrt(require_positive(f"the norm of {source}'s amplitudes on the grid", norm))
    return amps


@dataclass(frozen=True)
class GaussianState:
    """Position/momentum standard-deviation pair of a Gaussian packet."""

    sigma_x: float
    sigma_p: float

    def __post_init__(self) -> None:
        require_positive("sigma_x", self.sigma_x)
        require_positive("sigma_p", self.sigma_p)


def _spectrum(psi: Grid, units: UnitSystem, rho: bool = False) -> tuple[float, float, np.ndarray]:
    """(p_0, dp, amplitudes) of to_momentum without its origin phase, which |phi|^2 never sees:
    the FFT centred by a roll of N//2 (DFT shift theorem); with rho, |phi|^2 of the rfft bins
    0 .. N//2 alone for a real psi. Squaring keeps the order, so |phi|^2 holds the same peak."""
    source = f"{units} and the position spacing {psi.spacing!r}"
    # a normal dp keeps |phi|^2 <= 1/dp finite
    dp = 2.0 * math.pi * units.hbar / (psi.n * psi.spacing)
    require_positive(f"the momentum spacing of {source}", dp, least=NORMAL)
    half = rho and not np.iscomplexobj(psi.amps)
    spectrum = np.fft.rfft(psi.amps) if half else np.fft.fftshift(np.fft.fft(psi.amps))
    spectrum *= psi.spacing / math.sqrt(2.0 * math.pi * units.hbar)
    if rho:  # as Grid.density
        spectrum = np.abs(spectrum)
        spectrum *= spectrum
    peak = float(spectrum.max()) if rho else float(np.abs(spectrum).max()) ** 2
    # rho ln rho is summed before dp scales it: sum rho = 1/dp, rho up to max |amps|^2 >= 1/(n dp)
    require_positive(f"sum rho ln rho of {source}", (abs(math.log(peak)) + 1) / dp)
    return -(psi.n // 2) * dp, dp, spectrum


def to_momentum(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> Grid:
    """hbar-scaled Fourier transform onto the centred conjugate grid p_k = (k - N//2) * dp,
    dp = h/(N*dx); the scaling makes Parseval exact: sum |phi|^2 dp == sum |psi|^2 dx."""
    p0, dp, spectrum = _spectrum(psi, units)
    m, turns = psi.n // 2, psi.origin / (psi.n * psi.spacing)
    source = f"{units} and the position spacing {psi.spacing!r}"
    # a NaN turn count comes first, so that max returns it
    require_positive(f"the momentum extent and turn count of {source}", max(m * abs(turns), -p0))
    # exp(-2 pi i t), p_k origin / hbar = 2 pi t less whole turns; cos and sin beat a complex exp
    t = (np.arange(psi.n) - m) * turns
    angle = -2.0 * math.pi * (t - np.rint(t))
    phase = np.empty(psi.n, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return Grid(p0, dp, np.multiply(spectrum, phase, out=spectrum), True)


def _pairwise_sum(leaf: Callable[[int, int], np.ndarray], lo: int, hi: int) -> np.float64:
    """np.sum of the points lo .. hi-1 that leaf(lo, hi) gives as contiguous float64 blocks in
    logical order, bit for bit: halves at n//2 less n//2 % 8 down to BLOCK, as numpy does."""
    if hi - lo <= BLOCK:
        return np.sum(leaf(lo, hi))
    mid = lo + (hi - lo) // 2 // 8 * 8
    return _pairwise_sum(leaf, lo, mid) + _pairwise_sum(leaf, mid, hi)


def _entropy(rho: np.ndarray, spacing: float, n: int) -> float:
    """differential_entropy of rho, which turns into rho ln rho; a rho of fewer than n points holds
    half bins, read in to_momentum's order N//2 .. 1, 0, 1 .. (N-1)//2: |phi_{N-k}| = |phi_k|."""
    m, scratch = (n // 2 if rho.size < n else 0), np.empty(min(n, BLOCK))

    def leaf(lo: int, hi: int) -> np.ndarray:
        if lo >= m:
            return rho[lo - m : hi - m]
        mid, out = min(hi, m), scratch[: hi - lo]  # the points below m read rho backwards
        out[: mid - lo] = rho[m - mid + 1 : m - lo + 1][::-1]
        out[mid - lo :] = rho[: hi - mid]
        return out

    total = _pairwise_sum(leaf, 0, n) * spacing
    # a NaN or negative entry shows in the min (0 if empty), a +inf one in the total
    if not rho.min(initial=0.0) >= 0 or (math.isinf(total) and not np.isfinite(rho).all()):
        raise InvalidInputError("density must be finite and nonnegative")
    if abs(total - 1.0) > 1e-8:
        raise InvalidInputError(f"density not normalized: integral = {total!r}")
    for lo in range(0, rho.size, BLOCK):  # rho ln rho, in place; 0 ln(ulp) = 0
        block = rho[lo : lo + BLOCK]
        terms = np.maximum(block, math.ulp(0.0), out=scratch[: block.size])
        block *= np.log(terms, out=terms)
    return float(-_pairwise_sum(leaf, 0, n) * spacing)


def differential_entropy(density: np.ndarray, spacing: float) -> float:
    """Riemann sum of -rho ln rho for a normalized sampled density (0 ln 0 = 0)."""
    rho = np.array(density, dtype=float)
    if rho.ndim != 1:
        raise InvalidInputError("density must be one-dimensional")
    require_positive("spacing", spacing)
    return _entropy(rho, spacing, rho.size)


def gaussian_information(sigma: float) -> float:
    """Closed-form differential entropy of a Gaussian: (1/2) ln(2 pi sigma^2 e)."""
    require_positive("sigma", sigma)
    return 0.5 * math.log(2.0 * math.pi * sigma * sigma * math.e)


def qiur_bound(units: UnitSystem = NATURAL_UNITS) -> float:
    """Lower bound ln(h e / 2) on the joint position+momentum information."""
    return math.log(units.h) + 1.0 - math.log(2.0)


def thermodynamic_entropy(phi: Grid, units: UnitSystem = NATURAL_UNITS) -> float:
    """k times the momentum information: S = -k int |phi|^2 ln |phi|^2 dp."""
    return units.k * differential_entropy(phi.density(), phi.spacing)


def entropy_report(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> dict:
    """I_x, I_p, their sum, the bound, and whether the bound is satisfied."""
    i_x = _entropy(psi.density(), psi.spacing, psi.n)
    _, dp, rho = _spectrum(psi, units, rho=True)
    i_p = _entropy(rho, dp, psi.n)
    bound, joint = qiur_bound(units), i_x + i_p
    return {"I_x": i_x, "I_p": i_p, "joint": joint, "bound": bound,
            "satisfied": bool(joint >= bound - 1e-3)}


def gaussian_packet(sigma_x: float, *, n: int = 4096) -> Grid:
    """Gaussian packet at rest around x = 0, sampled over +-8 sigma_x and renormalized
    on the grid; the span keeps truncated tail mass near machine epsilon."""
    require_positive("sigma_x", sigma_x)
    variance = 2.0 * math.pi * (sigma_x * sigma_x)
    require_positive(f"the variance 2 pi sigma_x**2 of sigma_x={sigma_x!r}", variance)
    width = 16.0 * sigma_x
    require_positive(f"the squared half span of sigma_x={sigma_x!r}", (width / 2) * (width / 2))
    require_count("grid points", n, MIN_GRID_POINTS, MAX_GRID_POINTS)
    dx = width / n
    x0 = -(n // 2) * dx
    amps, steps = np.empty(n), np.arange(min(n, BLOCK), dtype=float)
    for lo in range(0, n, BLOCK):  # in place: x_j, then -x_j^2 / (4 sigma_x^2), then psi
        x = np.add(steps[: n - lo], lo, out=amps[lo : lo + BLOCK])
        x *= dx
        x += x0
        x *= x
        x /= -4.0 * sigma_x**2
        np.exp(x, out=x)
        x *= variance**-0.25
    return Grid(x0, dx, _normalized("packet", dx, amps), True)


def box_ground_state(length: float, n: int = 8192, units: UnitSystem = NATURAL_UNITS) -> Grid:
    """Ground-state sine profile of a hard box [0, L], zero-padded around it.

    The padding (total span 16 L) refines the momentum grid so the slowly
    decaying |phi|^2 tail is resolved. The default n is twice the Gaussian
    default: the kinked box edges converge only as dx^2.
    """
    require_count("grid points", n, MIN_GRID_POINTS, MAX_GRID_POINTS)
    width = 16.0 * length
    source = f"length = {length!r} on {n} points"
    dx = require_positive(f"the grid spacing of {source}", width / n, least=NORMAL)
    # rho ln rho is summed before the spacing scales it: sum rho = 1/dx with rho
    # up to 2/L in position, and sum rho = 16 L / h with rho up to L / h in momentum
    require_positive(f"sum rho ln rho of {source}", 1 / dx * (abs(math.log(2 / length)) + 1))
    momentum = f"{source}, the position spacing {dx!r} and {units}"
    log_peak = math.log(length) - math.log(units.h)
    require_positive(f"sum rho ln rho of {momentum}", width / units.h * (abs(log_peak) + 1))
    x0 = -(width - length) / 2.0
    xs = x0 + dx * np.arange(n)
    amps = np.where(
        (xs >= 0.0) & (xs <= length),
        np.sqrt(2.0 / length) * np.sin(np.pi * np.clip(xs, 0.0, length) / length),
        0.0,
    )
    return Grid(x0, dx, _normalized("box", dx, amps), True)


def wavefunction_from_csv(path: str | Path) -> Grid:
    """Load a wavefunction from a CSV with header columns x, re, im.

    The x column must be uniformly spaced. The amplitudes are always
    renormalized on the grid.
    """
    rows: list[list[float]] = []
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
                rows.append([float(value) for value in row[:3]])
    except InvalidInputError:
        raise
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed numeric row: {exc}") from exc
    x, re, im = np.array(rows).reshape(-1, 3).T
    require_count("grid points", x.size, MIN_GRID_POINTS, MAX_GRID_POINTS)
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-9, atol=0.0):
        raise InvalidInputError(f"{path}: x column must be uniformly increasing")
    return Grid(float(x[0]), dx, _normalized(str(path), dx, re + 1j * im))
