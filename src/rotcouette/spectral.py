"""Frequency grids and shear-frame operator symbols.

The toolkit lives on a triply periodic box: unit tori in x and z and a long
periodic interval of length Ly standing in for the whole real line in y.
Modes are labelled (k, eta, l) with integer k, l and eta = 2*pi*j/Ly; spectral
data is stored as complex mode amplitudes C[k, j, l] of exp(i(kx + eta y + lz))
so that differential operators act through the symbols (ik, i eta, il).  An
amplitude is the forward DFT of the physical samples divided by the mode
count Nx*Ny*Nz, which keeps single-mode values grid independent; a sample is
the unnormalised sum of the amplitudes.  The stepper evaluates these sums on
the retained modes only, as matrix products (``simulation._Plan``'s
``to_grid`` and ``to_box``): the y sum on the retained box, then x, then z,
with the samples of n fields laid out field major as (n, Nx, Ny, Nz).

In the frame advected by the background shear, the Laplacian is diagonal with
the time-dependent symbol w(t) = k^2 + (eta - k t)^2 + l^2.  Both w and its
exact antiderivative are available in closed form, which is what makes exact
integrating factors cheap everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WaveVector",
    "GridSpec",
    "SpectralField",
    "w_symbol",
    "integral_w",
    "hermitian_defect",
]


@dataclass(frozen=True)
class WaveVector:
    """One Fourier mode label (k, eta, l); stored exactly as given."""

    k: int
    eta: float
    l: int

    @property
    def kl_magnitude(self) -> float:
        """|k, l|, magnitude of the x-z frequency pair."""
        return math.hypot(self.k, self.l)


def w_symbol(t: float, kv: WaveVector) -> float:
    """Shear-frame (negative) Laplacian symbol k^2 + (eta - k t)^2 + l^2."""
    d = kv.eta - kv.k * t
    return kv.k * kv.k + d * d + kv.l * kv.l


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
        if not 0.0 < self.Ly < math.inf:
            raise ValueError(f"Ly must be positive and finite, got {self.Ly}")

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
