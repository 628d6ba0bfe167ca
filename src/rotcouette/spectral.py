"""Frequency grids, shear-frame operator symbols, projections and norms.

The toolkit lives on a triply periodic box: unit tori in x and z and a long
periodic interval of length Ly standing in for the whole real line in y.
Modes are labelled (k, eta, l) with integer k, l and eta = 2*pi*j/Ly; spectral
data is stored as complex mode amplitudes C[k, j, l] of exp(i(kx + eta y + lz))
so that differential operators act through the symbols (ik, i eta, il).  The
underlying FFTs keep numpy's convention (unnormalised forward, 1/(Nx*Ny*Nz)
on the inverse); amplitudes are obtained by dividing the forward transform by
the mode count, which keeps single-mode values grid independent.

In the frame advected by the background shear, the Laplacian is diagonal with
the time-dependent symbol w(t) = k^2 + (eta - k t)^2 + l^2.  Both w and its
exact antiderivative are available in closed form, which is what makes exact
integrating factors cheap everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "WaveVector",
    "GridSpec",
    "SpectralField",
    "w_symbol",
    "w_dot_symbol",
    "integral_w",
    "nabla_L_magnitude",
    "project_zero",
    "project_nonzero",
    "sobolev_norm",
    "field_from_physical",
    "field_to_physical",
    "hermitian_symmetrize",
    "hermitian_defect",
    "high_eta_energy_fraction",
]


@dataclass(frozen=True)
class WaveVector:
    """One Fourier mode label (k, eta, l); stored exactly as given."""

    k: int
    eta: float
    l: int

    @property
    def magnitude(self) -> float:
        """|k, eta, l| = sqrt(k^2 + eta^2 + l^2)."""
        return math.sqrt(self.k * self.k + self.eta * self.eta + self.l * self.l)

    @property
    def kl_magnitude(self) -> float:
        """|k, l|, magnitude of the x-z frequency pair."""
        return math.hypot(self.k, self.l)


def w_symbol(t: float, kv: WaveVector) -> float:
    """Shear-frame (negative) Laplacian symbol k^2 + (eta - k t)^2 + l^2."""
    d = kv.eta - kv.k * t
    return kv.k * kv.k + d * d + kv.l * kv.l


def w_dot_symbol(t: float, kv: WaveVector) -> float:
    """Time derivative of ``w_symbol``: -2 k (eta - k t)."""
    return -2.0 * kv.k * (kv.eta - kv.k * t)


def integral_w(t: float, kv: WaveVector) -> float:
    """Exact integral of ``w_symbol`` over [0, t].

    Closed form (k^2 + l^2) t + [(eta - k t / 2)^2 + k^2 t^2 / 12] t; it is
    bounded below by k^2 t^3 / 12, the source of the cubic-in-time decay of
    sheared modes.
    """
    if t < 0:
        raise ValueError(f"integral_w requires t >= 0, got {t}")
    half = kv.eta - 0.5 * kv.k * t
    return (kv.k * kv.k + kv.l * kv.l) * t + (half * half + kv.k * kv.k * t * t / 12.0) * t


def nabla_L_magnitude(t: float, kv: WaveVector) -> float:
    """|k, eta - k t, l|, magnitude of the shear-frame gradient symbol."""
    return math.sqrt(w_symbol(t, kv))


@dataclass(frozen=True)
class GridSpec:
    """Mode counts per axis and the y-period of the discretised box.

    Nx, Ny, Nz must be even.  x and z wavenumbers are the integers produced
    by the usual FFT ordering; y frequencies are eta_j = 2*pi*j/Ly for
    j in [-Ny/2, Ny/2).  The dealias cutoff per axis is the largest symmetric
    band that keeps quadratic products alias free.
    """

    Nx: int
    Ny: int
    Nz: int
    Ly: float = 32.0

    def __post_init__(self) -> None:
        for name in ("Nx", "Ny", "Nz"):
            n = getattr(self, name)
            if n <= 0:
                raise ValueError(f"{name} must be positive, got {n}")
            if n % 2 != 0:
                raise ValueError(f"{name} must be even, got {n}")
        if self.Ly <= 0:
            raise ValueError(f"Ly must be positive, got {self.Ly}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.Nx, self.Ny, self.Nz)

    @property
    def n_modes(self) -> int:
        return self.Nx * self.Ny * self.Nz

    @property
    def cell_measure(self) -> float:
        """Per-mode weight in spectral norms: Ly/Ny per y-mode, 1 in x and z."""
        return self.Ly / self.Ny

    @property
    def eta_spacing(self) -> float:
        return 2.0 * math.pi / self.Ly

    @cached_property
    def k_index(self) -> np.ndarray:
        return np.fft.fftfreq(self.Nx, 1.0 / self.Nx).astype(np.int64)

    @cached_property
    def j_index(self) -> np.ndarray:
        return np.fft.fftfreq(self.Ny, 1.0 / self.Ny).astype(np.int64)

    @cached_property
    def l_index(self) -> np.ndarray:
        return np.fft.fftfreq(self.Nz, 1.0 / self.Nz).astype(np.int64)

    @cached_property
    def eta_values(self) -> np.ndarray:
        return self.eta_spacing * self.j_index.astype(np.float64)

    @property
    def dealias_cutoffs(self) -> tuple[int, int, int]:
        # largest kc with 3*kc < N: products of kept modes alias only onto
        # modes that the mask removes again
        return ((self.Nx - 1) // 3, (self.Ny - 1) // 3, (self.Nz - 1) // 3)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cx, cy, cz = self.dealias_cutoffs
        mx = np.abs(self.k_index) <= cx
        my = np.abs(self.j_index) <= cy
        mz = np.abs(self.l_index) <= cz
        return mx[:, None, None] & my[None, :, None] & mz[None, None, :]

    def sobolev_weights(self, s: float) -> np.ndarray:
        """(1 + k^2 + eta^2 + l^2)^s over the coefficient layout (cached, read-only)."""
        return _sobolev_weights(self, float(s))


@lru_cache(maxsize=16)
def _sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    k = grid.k_index.astype(np.float64)[:, None, None]
    eta = grid.eta_values[None, :, None]
    l = grid.l_index.astype(np.float64)[None, None, :]
    out = (1.0 + k * k + eta * eta + l * l) ** s
    out.flags.writeable = False
    return out


@dataclass
class SpectralField:
    """Complex mode amplitudes on a grid, tagged with the frame time.

    The time tag matters because every shear-frame operator symbol is time
    dependent.  Hermitian symmetry of the coefficients (real physical field)
    is an invariant the operations in this package preserve but do not force.
    """

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.time)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.time)


def field_from_physical(grid: GridSpec, values: np.ndarray, time: float = 0.0) -> SpectralField:
    """Analyse physical samples into mode amplitudes (forward FFT / mode count)."""
    coeffs = np.fft.fftn(values) / grid.n_modes
    return SpectralField(grid, coeffs, time)


def field_to_physical(f: SpectralField) -> np.ndarray:
    """Synthesise physical samples: sum of C * exp(i(kx + eta y + lz)) on the grid."""
    return np.fft.ifftn(f.coeffs) * f.grid.n_modes


def project_zero(f: SpectralField) -> SpectralField:
    """Keep only the x-averaged (k = 0) content."""
    out = np.zeros_like(f.coeffs)
    out[0, :, :] = f.coeffs[0, :, :]
    return f.with_coeffs(out)


def project_nonzero(f: SpectralField) -> SpectralField:
    """Keep only the k != 0 content; together with ``project_zero`` this is the identity."""
    out = f.coeffs.copy()
    out[0, :, :] = 0.0
    return f.with_coeffs(out)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Weighted-l2 Sobolev norm sqrt(sum (1+k^2+eta^2+l^2)^s |C|^2 * cell).

    The uniform cell weight Ly/Ny makes this a Riemann-sum surrogate for the
    continuum eta-integral; it differs from the physical-space L2 integral by
    a fixed grid constant, so all ratio- and envelope-type comparisons are
    unaffected.  s = 0 is the (surrogate) L2 norm.
    """
    if s < 0:
        raise ValueError(f"sobolev_norm requires s >= 0, got {s}")
    weights = f.grid.sobolev_weights(s) if s != 0 else 1.0
    total = np.sum(weights * (f.coeffs.real**2 + f.coeffs.imag**2))
    return float(np.sqrt(total * f.grid.cell_measure))


def _reverse_index(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def _conjugate_flip(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    ix = _reverse_index(grid.Nx)
    iy = _reverse_index(grid.Ny)
    iz = _reverse_index(grid.Nz)
    # over the last three axes, so stacked components flip in one call
    return np.conj(coeffs[(Ellipsis,) + np.ix_(ix, iy, iz)])


def hermitian_defect(f: SpectralField) -> float:
    """Max |C(k,eta,l) - conj(C(-k,-eta,-l))| over all modes."""
    return float(np.max(np.abs(f.coeffs - _conjugate_flip(f.grid, f.coeffs))))


def hermitian_symmetrize(f: SpectralField) -> SpectralField:
    """Average the field with its conjugate reflection (exact real-field part)."""
    sym = 0.5 * (f.coeffs + _conjugate_flip(f.grid, f.coeffs))
    return f.with_coeffs(sym)


def high_eta_energy_fraction(f: SpectralField, frac: float = 0.9, j_limit: int | None = None) -> float:
    """Fraction of |C|^2 carried by |j| >= frac * j_limit; resolution monitor.

    ``j_limit`` defaults to the Nyquist index Ny/2; pass the dealias cutoff to
    monitor the live band edge of a dealiased computation.
    """
    power = f.coeffs.real**2 + f.coeffs.imag**2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    jcut = frac * (f.grid.Ny // 2 if j_limit is None else j_limit)
    mask = np.abs(f.grid.j_index) >= jcut
    return float(np.sum(power[:, mask, :])) / total


def resolve_eta_index(grid: GridSpec, j: int) -> int:
    """Array position of the y-mode with integer index j (may be negative)."""
    half = grid.Ny // 2
    if not (-half <= j < half):
        raise ValueError(f"eta index {j} outside [-{half}, {half})")
    return j % grid.Ny

