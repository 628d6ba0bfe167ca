"""Pseudospectral integration of the perturbation system in the shear frame.

The shear rate and the rotation are both 1, as in the paper.  The state is
a divergence-free (with respect to the frame gradient) triple of spectral
velocity components, held as one (3, Nx, Ny, Nz) coefficient array.
The whole linearised system (frame Laplacian, rotation and the pressure that
keeps the velocity divergence free) is solved exactly mode by mode: the
``propagator`` is the closed-form damped rotation of the paper's good
unknowns, written out as a rational 3x3 map per mode, and the x-averaged
modes follow the nilpotent lift-up as its k = 0 case.  Time stepping is
Lawson's integrating-factor Runge-Kutta method with that operator, so only
the projected advection goes through the explicit stages; a linearised run
is exact at any step size.  The stepper's state is one (3, 2cx+1, 2cy+1,
cz+1) array in FFT order: the retained 2/3 box |k| <= cx, |j| <= cy,
0 <= l <= cz of a real field, outside which every mode is zero, so no mask
is applied.  ``_initial_box`` builds it, ``step`` takes and returns it, and
``run`` carries it and keeps it as its snapshots; the full ``VelocityField``
is built only to read a file initial condition, and ``simulate`` expands each
snapshot by ``_full`` as it writes it, as ``initial_condition`` is of ``_initial_box``.
Advection is evaluated in rotational form on the physical grid and
re-projected, which keeps it energy-neutral.  The box reaches the grid and
comes back through dense partial DFTs over the retained modes alone, three
matrix products each way (``_Plan.to_grid``, ``_Plan.to_box``): y first,
on the box before it is expanded, then x, then z.  No FFT transforms the
zero padding, and no mode outside the box is ever computed.  The physical samples are
field major, (n, Nx, Ny, Nz), so the cross product runs on whole field
planes.  The curl, the cross product and the projection act on all
components at once, on stacked arrays ordered so that each is a few array
operations (``_Symbols``); every element sees the operations, in the order,
of the per-component formulas.  Every large intermediate of a stage lives in
one scratch workspace per grid (``_workspace``), which ``run`` frees with its
operator caches, so a stage allocates only box-sized arrays.  The workspace is
the stage's plan: it holds the operands of every product, shaped once per grid
and field count, so a stage makes one workspace lookup and then only
arithmetic calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .spectral import GridSpec, SpectralField, _conjugate_flip

__all__ = [
    "BlowUpError",
    "SimConfig",
    "VelocityField",
    "RunResult",
    "leray_project_L",
    "nonlinear_rhs",
    "propagator",
    "step",
    "run",
    "initial_condition",
    "divergence_defect",
    "advective_rate_bound",
]

logger = logging.getLogger(__name__)


class BlowUpError(RuntimeError):
    """Numerical blow-up: non-finite coefficients or norm past the cap."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass
class VelocityField:
    """The three spectral velocity components as one (3, Nx, Ny, Nz) array at one frame time."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.coeffs.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"velocity shape {self.coeffs.shape} does not match 3 x grid {self.grid.shape}"
            )

    def components(self) -> tuple[SpectralField, SpectralField, SpectralField]:
        """Views of the three components as spectral fields."""
        return tuple(SpectralField(self.grid, c, self.time) for c in self.coeffs)

    def coeff_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the three component arrays."""
        return tuple(self.coeffs)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the nonlinear (or linearised) integrator."""

    nu: float
    grid: GridSpec
    dt: float | None = None  # None: min(0.01, 0.5 / advective rate of the IC)
    t_end: float = 10.0
    eps: float = 1e-6
    seed: int = 0
    ic_kind: str = "single_mode"  # single_mode | random_band | file
    ic_mode: tuple[int, int, int] = (1, 0, 1)  # (k, j, l) with eta = 2 pi j / Ly
    ic_file: str | None = None
    sigma: float = 5.0
    nonlinear_enabled: bool = True
    rk_stages: int = 4  # only 4 (classical); kept while workload INIs still write it
    diag_every: int = 10
    snapshot_every: int = 0
    blowup_cap: float = 1e6
    C0: float = 100.0
    C1: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        # chained comparisons with math.inf are false for NaN and for infinities
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        for name, v in (("t_end", self.t_end), ("eps", self.eps)):
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {v}")
        for name in ("blowup_cap", "C0", "C1"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 4.5 < self.sigma < math.inf:
            raise ValueError(f"sigma must exceed 9/2 for the weighted diagnostics, got {self.sigma}")
        if self.rk_stages != 4:
            raise ValueError(f"rk_stages must be 4 (the stepper is Lawson-RK4), got {self.rk_stages}")
        if self.ic_kind not in ("single_mode", "random_band", "file"):
            raise ValueError(f"unknown ic_kind {self.ic_kind!r}")
        for name, least in (("diag_every", 1), ("seed", 0), ("snapshot_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        cut = self.grid.dealias_cutoffs
        if self.ic_kind == "single_mode" and not (
            any(self.ic_mode) and all(abs(i) <= c for i, c in zip(self.ic_mode, cut))
        ):
            raise ValueError(f"ic_mode {self.ic_mode} must be a mode other than the mean mode "
                             f"inside the dealiased band |k|, |j|, |l| <= {cut}")
        if self.ic_kind == "file" and not (self.ic_file and Path(self.ic_file).is_file()):
            raise ValueError(f"ic_kind = file needs an existing ic_file, got {self.ic_file!r}")

    @property
    def N(self) -> float:
        """Sobolev index of the weighted diagnostics (two below the data index)."""
        return self.sigma - 2.0


# ---------------------------------------------------------------------------
# frame symbols


@dataclass(frozen=True, eq=False)
class _Waves:
    """Time-independent pieces of the frame symbols on one storage layout."""

    k: np.ndarray  # (nk, 1, 1)
    eta: np.ndarray  # (1, nj, 1)
    l: np.ndarray  # (1, 1, nl)
    k2: np.ndarray
    l2: np.ndarray
    kl2: np.ndarray  # k^2 + l^2, (nk, 1, nl)
    index: np.ndarray | None = None  # box only: flat positions of the box in (Nx, Ny, Nz)
    mirror: np.ndarray | None = None  # and of the reflections of its l > 0 modes there;
    to_grid: tuple | None = None  # the partial DFT matrices (Ex, Ey, Az) of ``_Plan.to_grid``
    to_box: tuple | None = None  # and (Ex^H, Ey^H, Bz) of ``_Plan.to_box``


def _dft(n: int, m: np.ndarray) -> np.ndarray:
    """e^{2 pi i a m / n} at the n grid points a (rows) and the modes m (columns)."""
    return np.exp((2j * np.pi / n) * (np.arange(n)[:, None] * m % n))


@lru_cache(maxsize=16)
def _waves(grid: GridSpec, box: bool) -> _Waves:
    """Built once per grid and layout; the arrays are read-only."""
    (nx, ny, nz), (cx, cy, cz) = grid.shape, grid.dealias_cutoffs
    ix, iy, iz = np.arange(nx), np.arange(ny), np.arange(nz)
    if box:
        ix, iy, iz = np.r_[: cx + 1, -cx:0] % nx, np.r_[: cy + 1, -cy:0] % ny, iz[: cz + 1]
    k = grid.k_index[ix].astype(np.float64)[:, None, None]
    eta = grid.eta_values[iy][None, :, None]
    l = grid.l_index[iz].astype(np.float64)[None, None, :]
    arrays = [k, eta, l, k * k, l * l, k * k + l * l]
    if box:
        pos, flip = np.ix_(ix, iy, iz), np.ix_(-ix % nx, -iy % ny, -iz[1:] % nz)
        arrays += [np.ravel_multi_index(at, grid.shape) for at in (pos, flip)]
        ex, ey, ez = _dft(nx, ix), _dft(ny, iy), _dft(nz, iz)
        # z acts on the interleaved (re, im) pairs of the l >= 0 amplitudes: a
        # sample is Re D_0 + sum_{l > 0} 2 Re(D_l e^{ilz}), where sin 0 = 0
        # drops Im D_0, as irfft drops it; the forward columns carry 1 / n_modes
        pairs = np.stack((ez.real, -ez.imag), axis=-1).reshape(nz, -1)
        to_grid = (ex, ey, pairs.T * np.repeat(np.where(iz == 0, 1.0, 2.0), 2)[:, None])
        to_box = (ex.conj().T, ey.conj().T, pairs / grid.n_modes)
        arrays += [tuple(map(np.ascontiguousarray, m)) for m in (to_grid, to_box)]
    for a in arrays:
        for m in a if isinstance(a, tuple) else (a,):
            m.flags.writeable = False
    return _Waves(*arrays)


@lru_cache(maxsize=16)
def _box_sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    """(1 + k^2 + eta^2 + l^2)^s over the retained box (cached, read-only)."""
    wv = _waves(grid, True)
    out = (1.0 + wv.k2 + wv.eta * wv.eta + wv.l2) ** s
    out.flags.writeable = False
    return out


def _box(U: VelocityField) -> np.ndarray:
    """The retained box of U as a fresh C-contiguous (3, 2cx+1, 2cy+1, cz+1) array."""
    return U.coeffs.reshape(3, -1).take(_waves(U.grid, True).index, axis=1)


def _full(grid: GridSpec, b: np.ndarray, t: float) -> VelocityField:
    """Expand a box array by conjugate reflection, C(-k,-eta,-l) = conj C(k,eta,l), and zeros."""
    wv = _waves(grid, True)
    full = np.zeros((3,) + grid.shape, dtype=np.complex128)
    flat = full.reshape(3, -1)
    flat[:, wv.index], flat[:, wv.mirror] = b, np.conjugate(b[..., 1:])
    return VelocityField(grid, full, t)


def frame_symbols(grid: GridSpec, t: float, box: bool = False):
    """(K, ETA_L, L, w) at frame time t with unit-safe w at the mean mode, read-only.

    The symbols broadcast as (nk,1,1), (nk,nj,1), (1,1,nl) and (nk,nj,nl):
    (Nx, Ny, Nz) on the full coefficient layout, and (2cx+1, 2cy+1, cz+1)
    on the retained box (``box=True``) that holds the stepper's state.  The
    box symbols of the last few times are cached, so the cells of a lockstep
    ``run`` share them, with the stacked ``d`` that they carry (``_Symbols``).
    """
    return _box_symbols(grid, t) if box else _symbols(_waves(grid, False), t)


_TIME_CACHES: list = []  # the per-time operator caches, which ``run`` empties when it ends


def _time_cache(maxsize: int):
    """An lru_cache of the operators of one time, emptied when ``run`` returns."""

    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _TIME_CACHES.append(cached)
        return cached

    return wrap


class _Symbols(tuple):
    """(k, eta - k t, l, w) with d = (k, eta - k t, l) stacked, built on first use.

    ``d`` is (k, eta - k t, l, k) as one real (4, nk, nj, nl) array: its
    first three planes are d and its last three the rotation (d2, d3, d1).
    It is read-only and lives as long as the symbols, so the cells of a
    lockstep ``run`` share it with the cached box symbols.
    """

    @cached_property
    def d(self) -> np.ndarray:
        k, etal, l, w = self
        d = np.empty((4,) + w.shape)
        d[0] = d[3] = k
        d[1], d[2] = etal, l
        d.flags.writeable = False
        return d

    @cached_property
    def dvec(self) -> np.ndarray:
        """d[:3], the planes (k, eta - k t, l), as a view kept beside d."""
        return self.d[:3]

    @cached_property
    def drot(self) -> np.ndarray:
        """d[1:], the rotation (eta - k t, l, k), as a view kept beside d."""
        return self.d[1:]


def _symbols(wv: _Waves, t: float) -> _Symbols:
    etal = wv.eta - wv.k * t
    w = wv.k2 + etal * etal + wv.l2
    w[0, 0, 0] = 1.0
    etal.flags.writeable = w.flags.writeable = False
    return _Symbols((wv.k, etal, wv.l, w))


@_time_cache(maxsize=4)  # the stage times t, t + dt/2 and t + dt of one step, and the next row time
def _box_symbols(grid: GridSpec, t: float):
    return _symbols(_waves(grid, True), t)


# ---------------------------------------------------------------------------
# spatial operators
#
# The array operators take stacked (3, nk, nj, nl) coefficient arrays, on
# either layout unless noted, with the symbols of ``frame_symbols``;
# ``divergence_defect`` takes a ``VelocityField``.


_STACKED_MODES = 5000  # below the stacked projection's measured crossovers, 5031 to 7560
# modes per component (BENCH_stage_passes.json, "projection_paths")


def leray_project_L(f: np.ndarray, sym) -> np.ndarray:
    """In place: f + grad_L psi, with psi making f frame divergence free; returns f.

    This is f - grad_L (Delta_L)^{-1} (div_L f): idempotent, it annihilates
    pure gradients and passes the mean mode, whose symbol vanishes, through
    untouched.  With d = (k, eta - k t, l), psi = i (d . f) / |d|^2 and
    grad_L psi = (i d) psi.  Up to ``_STACKED_MODES`` modes per component,
    where the count of array operations sets the cost, d . f, i d and
    (i d) psi are each taken on all components at once from the stacked
    ``sym.d``; above it, where memory traffic does, one component at a time
    on the broadcast symbols.  Both give every element the operations, in
    the order, of the per-component formulas.  Folding the two factors of i
    into a sign, f - d (d . f) / |d|^2, would give the same values but other
    signed zeros.
    """
    k, etal, l, w = sym
    stacked = f[0].size <= _STACKED_MODES
    if stacked:
        p = sym.dvec * f
        psi = p[0] + p[1]
        psi += p[2]
    else:
        psi = k * f[0] + etal * f[1] + l * f[2]
    psi *= 1j
    psi /= w
    psi[0, 0, 0] = 0.0
    if stacked:
        np.multiply(1j, sym.dvec, out=p)
        f += np.multiply(p, psi, out=p)
    else:
        for fi, di in zip(f, (k, etal, l)):
            fi += 1j * di * psi
    return f


class _Plan:
    """The operands of both transforms for n fields, shaped once as views of the workspace.

    Named by step: the y step's box side (``jb``, j leading; ``jb2`` for the
    product, ``jb_box`` in box order) and grid side (``yb``, ``yb2``, and
    ``yb_k`` k leading), the x step's box side (``kb``, ``kb3``, ``kb_j`` j
    leading) and grid side (``xz3``, and ``xz_re``, its real (re, im) pairs
    for the z step), and the samples (``g``, ``g2``).  The forward and the
    inverse transform share them step by step.
    """

    def __init__(self, flat: list, shapes: tuple, wv: _Waves):
        self.ex, self.ey, self.az = wv.to_grid
        self.exh, self.eyh, self.bz = wv.to_box
        jb, yb, kb, xz, g = (f[: math.prod(s)].reshape(s) for f, s in zip(flat, shapes))
        self.jb, self.jb2, self.jb_box = jb, jb.reshape(len(jb), -1), jb.transpose(1, 2, 0, 3)
        self.yb, self.yb2, self.yb_k = yb, yb.reshape(len(yb), -1), yb.transpose(1, 2, 0, 3)
        self.kb, self.kb3, self.kb_j = kb, kb.reshape(kb.shape[:2] + (-1,)), kb.transpose(2, 0, 1, 3)
        self.xz3 = xz.reshape(xz.shape[:2] + (-1,))
        self.xz_re = xz.view(np.float64).reshape(-1, len(self.az))
        self.g, self.g2 = g, g.reshape(-1, g.shape[-1])

    def to_grid(self, c_j: np.ndarray) -> np.ndarray:
        """Samples ``g``, (n, Nx, Ny, Nz), of n real fields whose box has the (j, n, k, l) view c_j.

        Partial DFTs over the retained modes only, one axis at a time as
        matrix products: y on the box with j moved to the front (one
        product), then x on each field, then the real step in z.  The next
        ``to_grid`` on the grid overwrites ``g``.
        """
        np.copyto(self.jb, c_j)
        np.matmul(self.ey, self.jb2, out=self.yb2)
        np.copyto(self.kb, self.yb_k)
        np.matmul(self.ex, self.kb3, out=self.xz3)
        np.matmul(self.xz_re, self.az, out=self.g2)
        return self.g

    def to_box(self, p2: np.ndarray) -> np.ndarray:
        """A fresh box, (n, 2cx+1, 2cy+1, cz+1), of samples given by their (n Nx Ny, Nz) view p2.

        The conjugate transposes of ``to_grid``'s products in reverse order:
        z (with the 1 / n_modes of the amplitudes), x on each field, then y
        with the samples' y moved to the front.  Only the retained modes are
        computed; no padded spectrum is formed or cut.
        """
        np.matmul(p2, self.bz, out=self.xz_re)
        np.matmul(self.exh, self.xz3, out=self.kb3)
        np.copyto(self.yb, self.kb_j)
        np.matmul(self.eyh, self.yb2, out=self.jb2)
        return self.jb_box.copy()


class _Workspace:
    """The advection stage's plan on one grid: its scratch arrays and every operand, shaped once.

    ``box`` holds the six fields of a stage: (u2, u3, u1) in ``u_rot``, as
    ``u.take`` puts them there by the index ``rot``, and the curl in ``w``;
    ``box_j`` is its view for the y step and ``curl`` box-sized scratch for
    the curl's d_rot u.  The transforms' buffers are flat and sized for six
    fields; ``six`` and ``three`` shape their leading parts for the six
    fields that go to the grid and the three that come back (``_Plan``).
    ``prod`` holds the cross product in ``prod_v`` and one field of scratch
    in ``prod_s``, with ``samples`` its view for the z step; ``g_v``, ``g_w``
    and the triples of ``cross`` are its operands, planes of ``six.g``.
    """

    def __init__(self, grid: GridSpec):
        (nx, ny, nz), (cx, cy, cz) = grid.shape, grid.dealias_cutoffs
        nk, nj, nl = 2 * cx + 1, 2 * cy + 1, cz + 1
        self.box = np.empty((6, nk, nj, nl), dtype=np.complex128)
        self.u_rot, self.w, self.box_j = self.box[:3], self.box[3:], self.box.transpose(2, 0, 1, 3)
        self.rot = np.array([1, 2, 0])
        self.curl = np.empty((3, nk, nj, nl), dtype=np.complex128)
        self.prod = np.empty((4, nx, ny, nz))
        self.prod_v, self.prod_s = self.prod[:3], self.prod[3]
        self.samples = self.prod_v.reshape(-1, nz)
        shapes = [((nj, n, nk, nl), (ny, n, nk, nl), (n, nk, ny, nl), (n, nx, ny, nl),
                   (n, nx, ny, nz)) for n in (6, 3)]
        self._flat = [np.empty(math.prod(s), dtype=np.complex128) for s in shapes[0][:4]]
        self._flat.append(np.empty(6 * grid.n_modes))
        wv = _waves(grid, True)
        self.six, self.three = (_Plan(self._flat, s, wv) for s in shapes)
        g = self.six.g
        self.g_v, self.g_w = g[:3], g[3:]
        pairs = ((1, 5), (2, 3), (0, 4))  # (v3 w2, v1 w3, v2 w1)
        self.cross = tuple((p, g[i], g[j]) for p, (i, j) in zip(self.prod_v, pairs))


@_time_cache(maxsize=2)  # one grid per row; a second grid does not evict the first
def _workspace(grid: GridSpec) -> _Workspace:
    return _Workspace(grid)


def nonlinear_rhs(u: np.ndarray, sym, grid: GridSpec, t: float) -> np.ndarray:
    """Dealiased advection with its pressure correction, -P_L (u . grad_L u), box layout.

    Evaluated in rotational form, P_L (u x curl_L u), as a fresh array: the
    six fields (u2, u3, u1, w3, w1, w2) of u and w = curl_L u go to the
    physical grid by the workspace's plan ``six`` (``_Plan.to_grid``), the
    three products come back to the box by its plan ``three``
    (``_Plan.to_box``), then ``leray_project_L`` with sym =
    ``frame_symbols(grid, t, box=True)``.  In that order the curl is
    i (d u_rot - d_rot u), a few operations on stacked arrays with d and
    d_rot the views ``sym.dvec`` and ``sym.drot``, and the cross product is (v2 w3, v3 w1, v1 w2),
    one product of whole field planes, less (v3 w2, v1 w3, v2 w1), one plane
    at a time.  The grid's workspace (``_workspace``) holds every operand of
    those products, shaped once per grid and field count, so the stage makes
    one workspace lookup and then only arithmetic calls.
    With 3 kc < N no alias lands in the box, and P_L annihilates the gradient
    grad_L |u|^2 / 2 that separates the forms.
    """
    ws = _workspace(grid)
    w = ws.w
    u.take(ws.rot, 0, ws.u_rot, "wrap")  # in range; "raise" would buffer the output
    np.multiply(sym.dvec, ws.u_rot, out=w)
    w -= np.multiply(sym.drot, u, out=ws.curl)
    w *= 1j
    ws.six.to_grid(ws.box_j)
    s = ws.prod_s
    np.multiply(ws.g_v, ws.g_w, out=ws.prod_v)
    for p, gi, gj in ws.cross:
        p -= np.multiply(gi, gj, out=s)
    a = ws.three.to_box(ws.samples)
    if not np.isfinite(a.view(np.float64)).all():
        raise BlowUpError("non-finite values in the advection term", time=t)
    return leray_project_L(a, sym)


def _divergence_max(c: np.ndarray, sym) -> np.ndarray:
    """Max per-mode |k c1 + (eta - k t) c2 + l c3| of each stacked array of c, (..., 3, nk, nj, nl).

    Either layout.  At a conjugate reflection the sum is minus the conjugate,
    bit for bit, so the box of a real field has the maximum of its full layout.
    """
    k, etal, l, _ = sym
    d = k * c[..., 0, :, :, :] + etal * c[..., 1, :, :, :] + l * c[..., 2, :, :, :]
    return np.abs(d).max(axis=(-3, -2, -1))


def divergence_defect(U: VelocityField) -> float:
    """Max per-mode |i k u1 + i (eta - k t) u2 + i l u3| (frame divergence) at t = U.time."""
    return float(_divergence_max(U.coeffs, frame_symbols(U.grid, U.time)))


def advective_rate_bound(u: np.ndarray, t_horizon: float, grid: GridSpec) -> float:
    """Cheap upper bound on max|u| * max|grad_L symbol| for a CFL warning, from the box u.

    Uses the l1 bound on the physical maximum (no transforms), counting each
    l > 0 mode for itself and its reflection, and the frame gradient
    magnitude at the end of the horizon, where it is largest.
    """
    a = np.abs(u)
    umax = float(2.0 * np.sum(a) - np.sum(a[..., 0]))
    cx, cy, cz = grid.dealias_cutoffs
    eta_max = cy * grid.eta_spacing + cx * t_horizon
    return umax * (cx + eta_max + cz)


# ---------------------------------------------------------------------------
# time stepping


def propagator(
    grid: GridSpec, t0: float, t1: float, nu: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact solution operator of the linearised system from t0 to t1, box layout.

    With e_i = eta - k t_i, w1 = k^2 + e1^2 + l^2, q = t1 - t0
    and D = exp(-nu int_{t0}^{t1} w), the damped rotation of the good unknowns
    (K1, K2) by ``linear.phase_angle`` reads, in velocity variables,

        u1' = (D / w1) [(k^2 + l^2 + e0 e1) u1 + q k^2 u2]
        u2' = (D / w1) [(k^2 + l^2 + e0 e1) u2 - q (k^2 + l^2) u1]
        u3' = D u3 + (D q l / w1) (e1 u1 + k u2)

    since cos and sin of a difference of two arctangents are rational in the
    frame symbols.  At k = 0 this is the nilpotent lift-up of
    ``linear.zero_mode_evolve``.  It maps the frame divergence at t0 to D times
    the frame divergence at t1, and frame gradients to frame gradients, so it
    commutes with the Leray projection.  Returns a function that applies the
    operator to a (3, 2cx+1, 2cy+1, cz+1) array and leaves its argument unchanged.
    The coefficients of the last two intervals are cached (``_propagator_coeffs``).
    """
    diag, c12, c21, decay, c31, c32 = _propagator_coeffs(grid, t0, t1, nu)

    def apply(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        np.multiply(diag, u[:2], out=out[:2])
        out[0] += c12 * u[1]
        out[1] -= c21 * u[0]
        np.multiply(decay, u[2], out=out[2])
        out[2] += c31 * u[0]
        out[2] += c32 * u[1]
        return out

    return apply


@_time_cache(maxsize=2)  # the two half steps of one step
def _propagator_coeffs(grid: GridSpec, t0: float, t1: float, nu: float) -> tuple:
    wv = _waves(grid, True)
    e0 = wv.eta - wv.k * t0
    e1 = wv.eta - wv.k * t1
    e01 = e0 * e1
    q = t1 - t0
    # e is linear in s, so the mean of e^2 over [t0, t1] is (e0^2 + e0 e1 + e1^2) / 3
    decay = np.exp((-nu * (t1 - t0)) * (wv.kl2 + (e0 * e0 + e01 + e1 * e1) / 3.0))
    w1 = wv.kl2 + e1 * e1
    w1[0, 0, 0] = 1.0
    dw = decay / w1
    diag = dw * (wv.kl2 + e01)
    qdw = q * dw
    c12 = qdw * wv.k2
    c21 = qdw * wv.kl2
    qldw = qdw * wv.l
    coeffs = (diag, c12, c21, decay, qldw * e1, qldw * wv.k)
    for c in coeffs:
        c.flags.writeable = False
    return coeffs


def step(u: np.ndarray, t: float, dt: float, cfg: SimConfig) -> np.ndarray:
    """Advance the retained box of ``cfg.grid`` one step from frame time t.

    Lawson's integrating-factor classical RK4: the stages carry only the
    projected advection (``nonlinear_rhs``) and every linear term is applied
    exactly by the two half-step propagators, so a linearised step is one
    propagator application and the step size is limited only by the advective
    CFL.  The state is one (3, 2cx+1, 2cy+1, cz+1) box array, left unchanged;
    symbols are evaluated once per distinct stage time.  The returned box is
    fresh, re-projected by ``leray_project_L`` and checked against the blow-up
    cap; ``_full`` expands it to a Hermitian field.  Both operators are looked
    up as module globals, so a wrapper of either sees every call.
    """
    grid = cfg.grid
    nu = cfg.nu
    tm, t1 = t + 0.5 * dt, t + dt
    sym1 = frame_symbols(grid, t1, box=True)

    if not cfg.nonlinear_enabled:
        new = propagator(grid, t, t1, nu)(u)
    else:
        ph = propagator(grid, t, tm, nu)
        ph2 = propagator(grid, tm, t1, nu)
        symm = frame_symbols(grid, tm, box=True)
        k1 = nonlinear_rhs(u, frame_symbols(grid, t, box=True), grid, t)
        pu, pk = ph(u), ph(k1)
        k2 = nonlinear_rhs(pu + 0.5 * dt * pk, symm, grid, tm)
        k3 = nonlinear_rhs(pu + 0.5 * dt * k2, symm, grid, tm)
        k4 = nonlinear_rhs(ph2(pu + dt * k3), sym1, grid, t1)
        new = ph2(pu + dt / 6.0 * (pk + 2.0 * (k2 + k3)))
        new += dt / 6.0 * k4

    new = leray_project_L(new, sym1)
    new[:, 0, 0, 0] = 0.0

    # full-spectrum l2: the l = 0 plane is stored once, the others stand for
    # themselves and their conjugate reflection (cz < Nz/2 keeps l = Nz/2 out)
    power = new.real**2 + new.imag**2
    l2 = math.sqrt(float(2.0 * np.sum(power) - np.sum(power[..., 0])))
    if not math.isfinite(l2):
        raise BlowUpError("non-finite state after step", time=t1)
    if l2 > cfg.blowup_cap:
        raise BlowUpError(f"state norm {l2:.3e} exceeded the cap {cfg.blowup_cap:.3e}", time=t1)
    return new


# ---------------------------------------------------------------------------
# initial conditions


def _random_band(grid: GridSpec, seed: int) -> np.ndarray:
    """Hermitian Gaussian box on |k| <= 2, |eta| <= 2, |l| <= 2, before projection.

    One draw of (re, im) pairs per component, in (k, j, l) order over the dense
    band clipped to the dealiased one, the mean mode left out; the l >= 0 half
    of its average with its conjugate reflection.
    """
    cx, cy, cz = grid.dealias_cutoffs
    kx, jmax, lz = min(2, cx), min(cy, int(math.floor(2.0 / grid.eta_spacing))), min(2, cz)
    a = np.zeros((3, 2 * kx + 1, 2 * jmax + 1, 2 * lz + 1), dtype=np.complex128)
    rng = np.random.default_rng(seed)
    for ci in a.reshape(3, -1):
        z = rng.standard_normal((ci.size - 1, 2))
        ci[:] = np.insert(z[:, 0] + 1j * z[:, 1], ci.size // 2, 0.0)  # the mean mode stays 0
    a += np.conjugate(a[:, ::-1, ::-1, ::-1])
    a *= 0.5
    b = np.zeros((3, 2 * cx + 1, 2 * cy + 1, cz + 1), dtype=np.complex128)
    ik, ij = np.arange(-kx, kx + 1) % b.shape[1], np.arange(-jmax, jmax + 1) % b.shape[2]
    b[:, ik[:, None], ij, : lz + 1] = a[..., lz:]
    return b


def _initial_box(cfg: SimConfig) -> np.ndarray:
    """The configured divergence-free, mean-free initial state as its retained box.

    A file is read and checked on the full layout, then gathered; any other
    state is built, projected and (a random band) scaled to H^sigma norm eps on the box.
    """
    grid = cfg.grid
    if cfg.ic_kind == "file":
        from .reporting import read_snapshot_csv

        U = read_snapshot_csv(cfg.ic_file)
        if U.grid != grid:
            raise ValueError("snapshot grid does not match the configured grid")
        if not np.isfinite(U.coeffs.view(np.float64)).all():  # read as written; a run cannot start
            raise ValueError(f"snapshot {cfg.ic_file} holds a coefficient that is not finite")
        if np.any(U.coeffs[:, ~grid.dealias_mask]):
            raise ValueError("snapshot holds modes outside the dealiased band")
        # a step reads only the l >= 0 box, so the l < 0 half must be its reflection
        b, mirror = _box(U), U.coeffs.reshape(3, -1)[:, _waves(grid, True).mirror]
        if not np.array_equal(mirror, np.conjugate(b[..., 1:])):
            raise ValueError("snapshot is not a real field: an l < 0 mode is not the conjugate "
                             "of its l > 0 reflection")
        # and the l = 0 plane, stored whole, must be its own reflection to rounding
        plane = U.coeffs[..., 0] - _conjugate_flip(grid, U.coeffs)[..., 0]
        if np.max(np.abs(plane)) > 1e-13 * np.max(np.abs(U.coeffs)):
            raise ValueError("snapshot is not a real field: its l = 0 plane is not its own "
                             "conjugate reflection to 1e-13 of its largest mode")
        return b

    if cfg.ic_kind == "random_band":
        b = _random_band(grid, cfg.seed)
    else:  # single_mode
        cx, cy, cz = grid.dealias_cutoffs
        b = np.zeros((3, 2 * cx + 1, 2 * cy + 1, cz + 1), dtype=np.complex128)
        k0, j0, l0 = cfg.ic_mode  # checked by SimConfig: not the mean mode, inside the band
        # a purely x-averaged seed feeds the streamwise component, which is
        # what drives the secular lift-up growth
        amp = (cfg.eps, 0.0, 0.0) if k0 == 0 else (cfg.eps / math.sqrt(3.0),) * 3
        for k, j, l in {(k0, j0, l0), (-k0, -j0, -l0)}:  # a real amplitude is its own conjugate
            if l >= 0:
                b[:, k % b.shape[1], j % b.shape[2], l] = amp

    b = leray_project_L(b, frame_symbols(grid, 0.0, box=True))
    b[:, 0, 0, 0] = 0.0
    if cfg.ic_kind == "random_band":
        power = b.real**2 + b.imag**2
        power[..., 1:] *= 2.0  # an l > 0 mode stands for itself and its conjugate reflection
        weights = _box_sobolev_weights(grid, cfg.sigma)
        total = math.sqrt(float(np.sum(weights * power)) * grid.cell_measure)
        b *= (cfg.eps / total) if total > 0 else 0.0
    return b


def initial_condition(cfg: SimConfig) -> VelocityField:
    """The configured initial state as a field: the expansion of ``_initial_box``."""
    return _full(cfg.grid, _initial_box(cfg), 0.0)


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunResult:
    """Diagnostic rows plus optional snapshots: (time tag, box) pairs, the box as
    ``step`` returned it; ``simulate`` expands each by ``_full`` as it writes it."""

    cfg: SimConfig
    reports: list = field(default_factory=list)
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    status: str = "completed"  # completed | blown_up | error
    t_fail: float | None = None
    warnings: list[str] = field(default_factory=list)
    dt: float | None = None  # the step size used
    n_steps: int = 0  # steps of size dt to t_end
    error: Exception | None = None  # what ended an ``error`` run

    @property
    def blown_up(self) -> bool:
        return self.status == "blown_up"

    def norm_series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        ts = np.array([r.t for r in self.reports])
        ys = np.array([r.norms[name] for r in self.reports])
        return ts, ys


def _band_edge_fraction(b: np.ndarray, grid: GridSpec) -> float:
    """Largest share of a component's power at |j| >= 0.9 cy, over the components of box b."""
    j = np.fft.fftfreq(b.shape[2], 1.0 / b.shape[2])  # FFT-ordered j of the box
    edge = b[:, :, np.abs(j) >= 0.9 * grid.dealias_cutoffs[1]]
    power = edge.real**2 + edge.imag**2
    power[..., 1:] *= 2.0  # an l > 0 plane stands for itself and its conjugate reflection
    near = power.sum(axis=(1, 2, 3))
    totals = [2.0 * np.vdot(c, c).real - np.vdot(c[..., 0], c[..., 0]).real for c in b]
    return max((float(n / s) if s > 0.0 else 0.0) for n, s in zip(near, totals))


def run(cfgs: Sequence[SimConfig]) -> list[RunResult]:
    """Integrate each configuration from its initial state to its t_end, in lockstep.

    Each round every live run takes one step through its own ``step`` call; a
    run builds its initial condition just before its first step.  Runs on one
    grid with the same nu and dt share the cached symbols, propagators and
    ledger weights of each time, and runs on one grid the stage workspace;
    the caches hold about one step's operators, so a row builds each of them
    once, and ``run`` empties them when it returns.  Each run
    (``_advance``) owes a diagnostic row every ``diag_every`` steps and at
    t = 0 and the end, keeps snapshots at the ``snapshot_every`` cadence, and
    turns a blow-up into a ``blown_up`` result with its time.  The rows that
    a round owes are reported together, one ledger call per grid, nu, sigma
    and row time (``_report``), each run with its own ``Accumulators``.  Any
    other exception ends its run alone, as an ``error`` result holding it.
    Each result is the one its configuration gives when run alone.
    """
    from .diagnostics import Accumulators

    results = [RunResult(cfg=cfg) for cfg in cfgs]
    live = [(res, _advance(res), Accumulators()) for res in results]
    while live:
        going, due = [], []
        for res, cell, acc in live:
            try:
                rows = next(cell, None)
            except Exception as exc:  # it ends this run alone
                res.status, res.error = "error", exc
                continue
            if rows is not None:
                going.append((res, cell, acc))
                due.append((res, acc, rows))
        # the first round owes each run its t = 0 row and perhaps its first step's:
        # every run's first row goes before every second one, so each run's rows keep their order
        for i in range(max((len(rows) for *_, rows in due), default=0)):
            _report([(res, acc, rows[i]) for res, acc, rows in due
                     if len(rows) > i and res.status != "error"])
        live = [cell for cell in going if cell[0].status != "error"]
    for cache in _TIME_CACHES:  # what follows a run need not hold a step's operators and workspace
        # (~5 and 25 MiB on 32x128x32)
        cache.cache_clear()
    return results


def _report(rows: list) -> None:
    """Append to each run the report of its row, (result, accumulators, (t, box)).

    One ``bootstrap_report`` call takes the rows of one grid, nu, sigma and
    t, stacked; a lone row goes as a view of its box.  If that call raises,
    its rows go again one at a time, so that the exception ends only its own
    run, as an ``error`` result.
    """
    from .diagnostics import bootstrap_report  # the module attribute, which a tracer may wrap

    groups: dict[tuple, list] = {}
    for res, acc, (t, box) in rows:
        groups.setdefault((res.cfg.grid, res.cfg.nu, res.cfg.sigma, t), []).append((res, acc, box))
    for (*_, t), group in groups.items():
        results, accs, boxes = zip(*group)
        stacked = boxes[0][None] if len(boxes) == 1 else np.stack(boxes)
        try:
            reports = bootstrap_report(stacked, t, [res.cfg for res in results], accs)
        except Exception as exc:
            if len(group) == 1:
                results[0].status, results[0].error = "error", exc
            else:  # again one row at a time, so that the exception ends only its own run
                for res, acc, box in group:
                    _report([(res, acc, (t, box))])
            continue
        for res, report in zip(results, reports):
            res.reports.append(report)


def _advance(result: RunResult) -> Iterator[tuple]:
    """The run of ``result.cfg``, filling ``result`` but for its reports.

    After each step it yields the rows (t, box) that it owes, which ``run``
    reports before the next step: the t = 0 row with the first step's, and
    after a blow-up the last state's, if it has none.
    """
    cfg = result.cfg
    u = _initial_box(cfg)
    rate = advective_rate_bound(u, cfg.t_end, cfg.grid)
    if cfg.snapshot_every > 0:
        result.snapshots.append((0.0, u))

    dt = cfg.dt
    if dt is None:
        dt = min(0.01, 0.5 / rate) if rate > 0 else 0.01
    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-12))) if cfg.t_end > 0 else 0
    if cfg.t_end > 0:
        dt = cfg.t_end / n_steps
    result.dt, result.n_steps = dt, n_steps

    if cfg.nonlinear_enabled and rate > 0 and dt > 0.5 / rate:
        msg = f"dt={dt:.3e} exceeds the advective CFL estimate {0.5 / rate:.3e}"
        logger.warning(msg)
        result.warnings.append(msg)

    rows = [(0.0, u)]
    warned_resolution = False
    t = 0.0
    try:
        for i in range(1, n_steps + 1):
            # through the module global, so that a wrapper of simulation.step sees every call
            u = step(u, t, dt, cfg)
            t_step, t = t + dt, i * dt  # a snapshot keeps the step's own time tag
            if i % cfg.diag_every == 0 or i == n_steps:
                rows.append((t, u))
                if not warned_resolution:
                    frac = _band_edge_fraction(u, cfg.grid)
                    if frac > 1e-8:
                        msg = (
                            f"t={t:.3f}: fraction {frac:.2e} of spectral energy within 10% "
                            f"of the resolved eta band edge; increase Ny or Ly"
                        )
                        logger.warning(msg)
                        result.warnings.append(msg)
                        warned_resolution = True
            if cfg.snapshot_every > 0 and (i % cfg.snapshot_every == 0 or i == n_steps):
                result.snapshots.append((t_step, u))  # step's fresh box, never written into
            yield rows
            rows = []
    except BlowUpError as exc:
        result.status = "blown_up"
        result.t_fail = exc.time
        result.warnings.append(str(exc))
        if (rows[-1][0] if rows else result.reports[-1].t) < t:
            rows.append((t, u))
    except Exception:
        if rows:  # the t = 0 row, owed before a first step that failed
            yield rows
        raise
    if rows:
        yield rows
