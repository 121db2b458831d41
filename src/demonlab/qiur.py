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
length/momentum of the active UnitSystem; individual values shift under unit
changes, but the joint sum against ln(he/2) is invariant, and that sum is the
physical object.

entropy_report takes |phi|^2 from a four-step FFT (Bailey 1990) of cache-sized rows, written
over the spectrum's own memory; a real psi has an even |phi|, |phi_{N-k}| = |phi_k|, so it
transforms half the rows and counts the mirrored ones twice. The packet build and the
elementwise entropy passes run on cache-sized blocks of BLOCK points; all is pure, with
per-call scratch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import NORMAL, InvalidInputError, require_count, require_positive
from .reporting import Check
from .units import NATURAL_UNITS, UnitSystem

#: Grid sizes for entropy work: coarser grids alias badly, finer ones outgrow memory.
MIN_GRID_POINTS, MAX_GRID_POINTS = 64, 2**22
#: Points per block of the elementwise passes: 128 KiB of float64 stays in L2 cache.
BLOCK = 2**14
#: The momentum density takes a four-step FFT of gcd(N, FOUR_STEP_ROWS) rows from
#: FOUR_STEP_MIN points up; below, one whole FFT is faster (BENCH_25.json).
FOUR_STEP_ROWS, FOUR_STEP_MIN = 32, 2**15


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


def _momentum_spacing(psi: Grid, units: UnitSystem) -> tuple[float, str]:
    """(dp, the source its errors name): dp = h / (N dx), refused unless normal, which keeps
    |phi|^2 <= 1/dp finite. Once |phi|^2 is known, its peak is checked too: rho ln rho is summed
    before dp scales it, with sum rho = 1/dp and rho up to max |phi|^2 >= 1/(N dp)."""
    source = f"{units} and the position spacing {psi.spacing!r}"
    dp = 2.0 * math.pi * units.hbar / (psi.n * psi.spacing)
    return require_positive(f"the momentum spacing of {source}", dp, least=NORMAL), source


def _cis(angle: np.ndarray) -> np.ndarray:
    """exp(i angle): cos and sin beat a complex exp."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def to_momentum(psi: Grid, units: UnitSystem = NATURAL_UNITS) -> Grid:
    """hbar-scaled Fourier transform onto the centred conjugate grid p_k = (k - N//2) * dp,
    dp = h/(N*dx); the scaling makes Parseval exact: sum |phi|^2 dp == sum |psi|^2 dx."""
    dp, source = _momentum_spacing(psi, units)
    # the FFT centred by a roll of N//2 (DFT shift theorem)
    spectrum = np.fft.fftshift(np.fft.fft(psi.amps))
    spectrum *= psi.spacing / math.sqrt(2.0 * math.pi * units.hbar)
    peak = float(np.abs(spectrum).max()) ** 2
    require_positive(f"sum rho ln rho of {source}", (abs(math.log(peak)) + 1) / dp)
    p0, m, turns = -(psi.n // 2) * dp, psi.n // 2, psi.origin / (psi.n * psi.spacing)
    # a NaN turn count comes first, so that max returns it
    require_positive(f"the momentum extent and turn count of {source}", max(m * abs(turns), -p0))
    # exp(-2 pi i t), p_k origin / hbar = 2 pi t less whole turns
    t = (np.arange(psi.n) - m) * turns
    phase = _cis(-2.0 * math.pi * (t - np.rint(t)))
    return Grid(p0, dp, np.multiply(spectrum, phase, out=spectrum), True)


def _split(n: int) -> int:
    """n1 of the four-step split n = n1 * n2: gcd(n, FOUR_STEP_ROWS), or n itself, one whole
    FFT, below FOUR_STEP_MIN points or where the gcd is below 8."""
    n1 = math.gcd(n, FOUR_STEP_ROWS)
    return n if n < FOUR_STEP_MIN or n1 < 8 else n1


def _twiddle(spectrum: np.ndarray, n: int) -> None:
    """spectrum[k1, j] *= exp(-2 pi i k1 j / n) in place, from two small tables: j = h w + l with
    w = ceil(sqrt(n2)) gives the factor exp(-2 pi i k1 h w / n) exp(-2 pi i k1 l / n), each
    exponent reduced mod n in integers; row k1 = 0 takes none."""
    rows, n2 = spectrum.shape
    w = math.isqrt(n2 - 1) + 1
    k1 = np.arange(1, rows)[:, None]
    high, low = (_cis(k1 * j % n * (-2.0 * math.pi / n))
                 for j in (np.arange(0, n2, w), np.arange(w)))
    factor = np.empty((high.shape[1], w), dtype=complex)
    for row, h, l in zip(spectrum[1:], high, low):
        row *= np.multiply(h[:, None], l, out=factor).reshape(-1)[:n2]


def _momentum_density(psi: Grid, units: UnitSystem) -> tuple[float, np.ndarray, slice]:
    """(dp, |phi|^2, twice) without to_momentum's origin phase, which |phi|^2 never sees, by
    the four-step FFT (Bailey 1990): with n = n1 n2, length-n1 FFTs down the columns of psi as
    n1 rows, the twiddles, then length-n2 FFTs along the rows in place put X_{k1 + n1 k2} at
    row k1, column k2. |phi|^2 is then written over the spectrum's own memory. A real psi takes
    the rfft rows k1 <= n1/2 alone: |X_{n-k}| = |X_k| maps row k1 to row n1 - k1, so each entry
    of rho[twice], the rows 0 < k1 < n1/2, stands for two points."""
    dp, source = _momentum_spacing(psi, units)
    n1 = _split(psi.n)
    n2, real = psi.n // n1, not np.iscomplexobj(psi.amps)
    columns = psi.amps.reshape(n1, n2)
    spectrum = np.fft.rfft(columns, axis=0) if real else np.fft.fft(columns, axis=0)
    if n2 > 1:
        _twiddle(spectrum, psi.n)
        np.fft.fft(spectrum, axis=1, out=spectrum)
    spectrum = spectrum.reshape(-1)
    rho, scratch = spectrum.view(float), np.empty(min(spectrum.size, BLOCK))
    scale = psi.spacing / math.sqrt(2.0 * math.pi * units.hbar)
    for lo in range(0, spectrum.size, BLOCK):  # rho[lo:] overlays spectrum[lo // 2:], read already
        block = np.abs(spectrum[lo : lo + BLOCK], out=scratch[: spectrum.size - lo])
        block *= scale  # before squaring, as to_momentum scales phi
        rho[lo : lo + block.size] = np.multiply(block, block, out=block)
    rho = rho[: spectrum.size]
    require_positive(f"sum rho ln rho of {source}", (abs(math.log(rho.max())) + 1) / dp)
    return dp, rho, slice(n2, (n1 + 1) // 2 * n2) if real else slice(0)


def _entropy(rho: np.ndarray, spacing: float, twice: slice = slice(0)) -> float:
    """differential_entropy of the contiguous rho, which turns into rho ln rho; each entry of
    rho[twice] stands for two points."""

    def integral() -> float:
        return (np.sum(rho) + np.sum(rho[twice])) * spacing

    total = integral()
    # a NaN or negative entry shows in the min (0 if empty), a +inf one in the total
    if not rho.min(initial=0.0) >= 0 or (math.isinf(total) and not np.isfinite(rho).all()):
        raise InvalidInputError("density must be finite and nonnegative")
    if abs(total - 1.0) > 1e-8:
        raise InvalidInputError(f"density not normalized: integral = {total!r}")
    scratch = np.empty(min(rho.size, BLOCK))
    for lo in range(0, rho.size, BLOCK):  # rho ln rho, in place; 0 ln(ulp) = 0
        block = rho[lo : lo + BLOCK]
        terms = np.maximum(block, math.ulp(0.0), out=scratch[: block.size])
        block *= np.log(terms, out=terms)
    return float(-integral())


def differential_entropy(density: np.ndarray, spacing: float) -> float:
    """Riemann sum of -rho ln rho for a normalized sampled density (0 ln 0 = 0)."""
    rho = np.array(density, dtype=float)
    if rho.ndim != 1:
        raise InvalidInputError("density must be one-dimensional")
    require_positive("spacing", spacing)
    return _entropy(rho, spacing)


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
    """I_x, I_p, their sum, the bound, and whether the bound is satisfied (see verdicts)."""
    i_x = _entropy(psi.density(), psi.spacing)
    dp, rho, twice = _momentum_density(psi, units)
    i_p = _entropy(rho, dp, twice)
    report = {"I_x": i_x, "I_p": i_p, "joint": i_x + i_p, "bound": qiur_bound(units)}
    return report | {"satisfied": verdicts(report)["bound_satisfied"].passed}


def verdicts(report: dict) -> dict[str, Check]:
    """bound_satisfied: an entropy_report's joint information at least its bound less 1e-3."""
    joint, bound = report["joint"], report["bound"]
    return {"bound_satisfied": Check(bool(joint >= bound - 1e-3), joint, bound, 1e-3)}


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
