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

entropy_report streams |phi|^2 from a four-step FFT (Bailey 1990) in groups of rows and, from
2^19 points up, holds no array of the grid's size but psi; a real psi's |phi| is even, so half
the rows count twice. Its sums over psi run on cache-sized blocks in np.sum's order. All is pure.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
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
#: |phi|^2 comes from a four-step FFT of gcd(N, FOUR_STEP_ROWS) rows from FOUR_STEP_MIN points up
#: (BENCH_25.json), in <= PASSES groups of whole rows, all but the last of GROUP points or more.
FOUR_STEP_ROWS, FOUR_STEP_MIN, GROUP, PASSES = 32, 2**15, 2**17, 4


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
            require_positive("grid spacing", self.spacing, least=NORMAL)  # or |amp|^2 overflows
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


def _pairwise(a: np.ndarray, leaf: Callable[[np.ndarray], float]) -> float:
    """Sum of leaf(block) over blocks of a of at most BLOCK points, added in np.sum's order."""
    mid = a.size // 2 - a.size // 2 % 8
    return leaf(a) if a.size <= BLOCK else _pairwise(a[:mid], leaf) + _pairwise(a[mid:], leaf)


def _normalized(source: str, spacing: float, amps: np.ndarray) -> np.ndarray:
    """amps / sqrt(sum |amps|^2 * spacing), summed on blocks and divided in place; source names
    the input in the error for a zero or non-finite norm, and a finite norm means finite amps."""
    with np.errstate(over="ignore"):
        norm = float(_pairwise(amps, lambda a: np.sum(np.square(np.abs(a)))) * spacing)
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


def _momentum_density(psi: Grid, units: UnitSystem) -> Iterator[tuple[np.ndarray, slice]]:
    """|phi|^2 (less to_momentum's origin phase) in flat groups of rows of the four-step FFT (Bailey
    1990), each with the slice of its entries that stand for two points. With n = n1 n2, length-n1
    DFTs down the columns of psi as n1 rows (FFTs for one group, else a cis table's rows times psi),
    the twiddles exp(-2 pi i k1 j2 / n), then length-n2 FFTs along the rows put X_{k1 + n1 k2} at
    row k1, column k2; a real psi takes the rows k1 <= n1/2 alone, as |X_{n-k}| = |X_k| maps row
    k1 to row n1 - k1, so each of the rows 0 < k1 < n1/2 stands for two."""
    n1 = math.gcd(psi.n, FOUR_STEP_ROWS)  # or n, one whole FFT, if small or the gcd is below 8
    n1 = psi.n if psi.n < FOUR_STEP_MIN or n1 < 8 else n1
    n2, real = psi.n // n1, not np.iscomplexobj(psi.amps)
    rows, twice = (n1 // 2 + 1, (n1 + 1) // 2) if real else (n1, 1)
    size = rows if n2 == 1 else -(-rows // max(1, min(rows * n2 // GROUP, PASSES)))  # per group
    columns, spectrum = psi.amps.reshape(n1, n2), np.empty((size, n2), complex)
    w, scratch = math.isqrt(n2 - 1) + 1, np.empty(min(psi.n, BLOCK))  # twiddles: j2 = h w + l
    coarse, fine = np.arange(0, n2, w), np.arange(w)  # each from a table of about sqrt(n2)
    if size < rows:  # the table; a real psi takes its rows C_k + i S_k as rows C_k, S_k
        table = _cis(np.outer(np.arange(rows), np.arange(n1)) % n1 * (-2 * math.pi / n1))
        table = np.stack((table.real, table.imag), 1) if real else table
    for k0 in range(0, rows, size):
        group = spectrum[: min(size, rows - k0)]
        if size == rows:
            (np.fft.rfft if real else np.fft.fft)(columns, axis=0, out=group)
        else:  # the product fills a real psi's row k with C_k psi, then S_k psi: interleave them
            out = group.view(float).reshape(-1, n2) if real else group
            np.matmul(table[k0 : k0 + size].reshape(-1, n1), columns, out=out)
            for row in group.view(float) if real else ():
                row[::2], row[1::2] = row[:n2].copy(), row[n2:].copy()
        if n2 > 1:  # row k1 = 0 takes no twiddle; each exponent k1 j2 is reduced mod n in integers
            k1 = np.arange(max(k0, 1), k0 + len(group))[:, None]
            high, low = (_cis(k1 * j % psi.n * (-2 * math.pi / psi.n)) for j in (coarse, fine))
            for row, h, l in zip(group[k0 == 0 :], high, low):
                row *= np.multiply.outer(h, l).reshape(-1)[:n2]
            np.fft.fft(group, axis=1, out=group)
        rho = group.reshape(-1).view(float)[: group.size]
        for lo in range(0, group.size, BLOCK):  # rho[lo:] overlays entries lo // 2 on, read already
            block = np.abs(group.reshape(-1)[lo : lo + BLOCK], out=scratch[: group.size - lo])
            block *= psi.spacing / math.sqrt(2.0 * math.pi * units.hbar)  # as to_momentum scales
            rho[lo : lo + block.size] = np.multiply(block, block, out=block)
        yield rho, slice(*(min(max(k - k0, 0), len(group)) * n2 for k in (1, twice)))


def _rho_log_rho(rho: np.ndarray) -> float:
    """sum rho ln rho of at most BLOCK points, turning rho into rho ln rho; 0 ln(ulp) = 0."""
    return np.sum(np.multiply(rho, np.log(np.maximum(rho, math.ulp(0.0))), out=rho))


def _information(groups: Iterable[tuple[np.ndarray, slice]], spacing: float) -> tuple[float, float]:
    """(-int rho ln rho, max rho) of a density in groups (rho, twice), each entry of rho[twice] for
    two points; rho turns into rho ln rho. Refused unless finite, nonnegative and of integral 1."""
    total, entropy, lowest, peak = 0.0, 0.0, math.inf, 0.0
    for rho, twice in groups:
        lowest, peak = rho.min(initial=lowest), rho.max(initial=peak)
        total += np.sum(rho) + np.sum(rho[twice])
        entropy += _pairwise(rho, _rho_log_rho) + np.sum(rho[twice])
    # a NaN or negative entry shows in the min, a +inf one in the total
    if not lowest >= 0 or (math.isinf(total) and not math.isfinite(peak)):
        raise InvalidInputError("density must be finite and nonnegative")
    if abs(total * spacing - 1.0) > 1e-8:
        raise InvalidInputError(f"density not normalized: integral = {total * spacing!r}")
    return float(-entropy * spacing), peak


def differential_entropy(density: np.ndarray, spacing: float) -> float:
    """Riemann sum of -rho ln rho for a normalized sampled density (0 ln 0 = 0)."""
    rho = np.array(density, dtype=float)
    if rho.ndim != 1:
        raise InvalidInputError("density must be one-dimensional")
    require_positive("spacing", spacing)
    return _information([(rho, slice(0))], spacing)[0]


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
    i_x = float(-_pairwise(psi.amps, lambda a: _rho_log_rho(np.square(np.abs(a)))) * psi.spacing)
    dp, source = _momentum_spacing(psi, units)
    with np.errstate(over="ignore"):  # an overflowing sum of rho ln rho fails the peak guard
        i_p, peak = _information(_momentum_density(psi, units), dp)
    require_positive(f"sum rho ln rho of {source}", (abs(math.log(peak)) + 1) / dp)
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
    except (ValueError, csv.Error) as exc:  # csv.Error: a field over csv.field_size_limit()
        raise InvalidInputError(f"{path}: malformed numeric row: {exc}") from exc
    x, re, im = np.array(rows).reshape(-1, 3).T
    require_count("grid points", x.size, MIN_GRID_POINTS, MAX_GRID_POINTS)
    dx = float(x[1] - x[0])
    if dx <= 0 or not np.allclose(np.diff(x), dx, rtol=1e-9, atol=0.0):
        raise InvalidInputError(f"{path}: x column must be uniformly increasing")
    amps = np.stack((re, im), axis=-1).view(complex)[:, 0]  # not re + 1j * im: 1j * inf is nan
    return Grid(float(x[0]), dx, _normalized(str(path), dx, amps))
