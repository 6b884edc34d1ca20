"""2D spectral machinery: DFT wrappers, Gaussian low-pass profile, smoothing
and the correlations the bandwidth search reads.

Conventions: the forward transform is unnormalized and the inverse carries
the 1/N^2 factor. Sample k of an N-point axis lives at frequency k/L for
k < N/2 and (k - N)/L for k >= N/2 (the wrapped layout both numpy and the
filter below share). Smoothing in this space is circular, so fields are
implicitly L-periodic in both directions. Smoothing and the correlations
work on the half plane of real-input transforms (rfft2: every row, columns
0..N/2); dft2 and idft2 keep the full complex layout.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import DensityField, GridSpec

# tolerance for the imaginary residue of an inverse transform whose input
# should have been conjugate-symmetric
_IMAG_TOL = 1e-9


@dataclass
class SpectrumField:
    """Complex DFT coefficients of a field, same (row, col) layout."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n_mesh
        if self.values.shape != (n, n):
            raise ValueError(
                f"spectrum shape {self.values.shape} does not match grid ({n}, {n})"
            )


@dataclass
class FilterProfile:
    """A real transfer function sampled on the wrapped frequency lattice."""

    grid: GridSpec
    sigma_tilde: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.grid.n_mesh
        if self.values.shape != (n, n):
            raise ValueError(
                f"filter shape {self.values.shape} does not match grid ({n}, {n})"
            )


def wrapped_frequencies(grid):
    """The N frequencies of one axis in DFT storage order."""
    n = grid.n_mesh
    k = np.arange(n)
    return np.where(k < n // 2, k, k - n) / grid.domain_width


def dft2(density):
    """Forward 2D DFT of a real field (unnormalized)."""
    return SpectrumField(grid=density.grid, values=np.fft.fft2(density.values))


def idft2(spectrum):
    """Inverse 2D DFT back to a real field.

    The spectrum of a real field is conjugate-symmetric, so the inverse
    must come out real up to roundoff. A residue above
    1e-9 * (1 + max|real part|) means the caller fed a non-symmetric
    spectrum and raises instead of silently dropping it.
    """
    out = np.fft.ifft2(spectrum.values)
    real = out.real
    residue = np.abs(out.imag).max()
    if residue >= _IMAG_TOL * (1.0 + np.abs(real).max()):
        raise ValueError(
            f"inverse transform is not real (max imaginary {residue:.3e}); "
            "spectrum lost conjugate symmetry"
        )
    return DensityField(grid=spectrum.grid, values=real.copy())


def gaussian_filter_spectrum(grid, sigma_tilde):
    """Continuous Gaussian low-pass profile with frequency-domain width sigma_tilde.

    G(f1, f2) = exp(-(f1^2 + f2^2) / (2 sigma_tilde^2)) / (2 pi sigma_tilde^2),
    sampled at the wrapped frequencies of the grid. Larger sigma_tilde
    passes more bandwidth; the equivalent spatial kernel is a Gaussian of
    width 1 / (2 pi sigma_tilde).

    This is the continuous profile inside the N-point frequency window
    only, not the whole transfer function smooth_density applies: that
    one adds the aliased copies G(f + m N / L) the window cuts off.
    """
    st = float(sigma_tilde)
    if not (st > 0):
        raise ValueError(f"sigma_tilde must be positive, got {sigma_tilde}")
    f = wrapped_frequencies(grid)
    f1 = f[np.newaxis, :]  # columns carry x1 frequencies
    f2 = f[:, np.newaxis]
    values = np.exp(-(f1 * f1 + f2 * f2) / (2.0 * st * st)) / (2.0 * np.pi * st * st)
    return FilterProfile(grid=grid, sigma_tilde=st, values=values)


def _aliased_gaussian(grid, sigma_tilde):
    """Sum over m of exp(-(f + m N / L)^2 / (2 sigma_tilde^2)) at the wrapped frequencies f.

    One axis of the exact DFT of the periodized, pixel-sampled Gaussian
    kernel (Poisson summation). Copies are added in +/-m pairs until a
    whole pair underflows to zero; |f +/- m N / L| grows with m, so every
    later copy is zero too. Pairing keeps the result exactly even in f.
    """
    f = wrapped_frequencies(grid)
    period = grid.n_mesh / grid.domain_width
    two_var = 2.0 * sigma_tilde * sigma_tilde
    total = np.exp(-f * f / two_var)
    m = 1
    while True:
        hi = f + m * period
        lo = f - m * period
        pair = np.exp(-hi * hi / two_var) + np.exp(-lo * lo / two_var)
        if not pair.any():
            return total
        total += pair
        m += 1


def _transfer_axis(grid, n_iter):
    """One axis of smooth_density's transfer function at step n_iter.

    The aliased Gaussian sum at sigma_tilde = n_iter / L, in wrapped
    order and without the 1 / (2 pi sigma_tilde^2) factor. The half-plane
    transforms below take the transfer function to be even, T(-f) = T(f):
    that is what makes the smoothed field real and lets one half-plane
    column stand for its mirror. Pairing the alias copies keeps it exactly
    even, and that is checked here bit for bit.
    """
    if n_iter != int(n_iter) or int(n_iter) < 1:
        raise ValueError(f"iteration number must be a positive integer, got {n_iter}")
    axis = _aliased_gaussian(grid, int(n_iter) / grid.domain_width)
    if not np.array_equal(axis[1:], axis[:0:-1]):
        raise ValueError("transfer function is not even; the smoothed field would not be real")
    return axis


def half_spectrum(density):
    """rfft2 of a real field: all rows in wrapped order, columns 0..N/2.

    The columns N/2+1..N-1 of the full transform are the complex
    conjugates of mirrored half-plane entries, so this half determines
    the whole spectrum. smooth_density and consecutive_correlations take
    it as an argument, so a caller can transform a field once and reuse
    the result.
    """
    return np.fft.rfft2(density.values)


def smooth_density(density, n_iter, spectrum=None):
    """Low-pass the field at bandwidth sigma_tilde = n_iter / L.

    Equivalent to circular convolution with the spatial Gaussian kernel
    dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2) sampled at pixel offsets and
    periodized over the domain. The spectrum is multiplied by that
    kernel's exact DFT: the continuous profile of gaussian_filter_spectrum
    plus its aliased copies, sum over m1, m2 of G(f1 + m1 N/L, f2 + m2 N/L),
    built as the outer product of one aliased sum per axis divided by
    2 pi sigma_tilde^2. The operation is linear in the input field.

    The transform pair is rfft2 / irfft2 on the half plane of
    non-negative x1 frequencies; spectrum, if given, must be
    half_spectrum(density) and saves the forward transform. irfft2
    returns a real field whatever its input, which is the true inverse
    only for a transfer function even in f: the exact evenness check on
    the per-axis sum guards that.
    """
    grid = density.grid
    axis = _transfer_axis(grid, n_iter)
    st = int(n_iter) / grid.domain_width
    n = grid.n_mesh
    if spectrum is None:
        spectrum = half_spectrum(density)
    transfer = np.outer(axis, axis[: n // 2 + 1]) / (2.0 * np.pi * st * st)
    return DensityField(grid=grid, values=np.fft.irfft2(spectrum * transfer, s=(n, n)))


def consecutive_correlations(density, spectrum=None):
    """Yield c(n) = corr(smooth_density(density, n), smooth_density(density, n - 1)) for n = 2, 3, ...

    Computed on the spectrum, with no inverse transform. By Parseval, the
    centred inner product of the fields smoothed by real, even transfer
    functions T and T' is the sum over nonzero frequencies of
    |R|^2 T T' / N^2, R the raster's spectrum. On the rfft2 half plane
    columns 1..N/2-1 also stand for their mirror images and count twice,
    columns 0 and N/2 count once, and the DC term is left out, which is
    exactly the mean subtraction. The 1 / N^2 and 1 / (2 pi sigma_tilde^2)
    factors cancel in the correlation, and T = a (x) a is separable, so
    every sum is a quadratic form u @ P @ u[:N/2+1] with u the product of
    two axis vectors: O(N^2) per step and no N x N temporaries.

    spectrum, if given, must be half_spectrum(density). Each value is
    clipped into [-1, 1], like pearson_correlation. A smoothed field with
    no variance raises ValueError. The sequence is endless; the caller
    stops reading it.
    """
    grid = density.grid
    if spectrum is None:
        spectrum = half_spectrum(density)
    half = spectrum.shape[1]
    power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
    power[:, 1 : half - 1] *= 2.0
    power[0, 0] = 0.0

    def energy(u):
        return float(u @ power @ u[:half])

    prev = _transfer_axis(grid, 1)
    prev_energy = energy(prev * prev)
    for n in itertools.count(2):
        axis = _transfer_axis(grid, n)
        cur_energy = energy(axis * axis)
        if cur_energy == 0.0 or prev_energy == 0.0:
            raise ValueError("correlation undefined for a constant field")
        r = energy(axis * prev) / (np.sqrt(cur_energy) * np.sqrt(prev_energy))
        yield min(max(float(r), -1.0), 1.0)
        prev, prev_energy = axis, cur_energy


def _unpack_pixel(p):
    if hasattr(p, "i") and hasattr(p, "j"):
        return int(p.i), int(p.j)
    i, j = p
    return int(i), int(j)


def smooth_density_direct(impulses, n_iter, grid):
    """Brute-force reference for smooth_density, O(points * N^2).

    Takes the raster as a sparse list of (pixel, sign) impulses and sums
    the spatial Gaussian kernel dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2)
    directly, over the 3x3 block of periodic images so the circularity of
    the spectral route is reproduced. Images farther out are left out,
    which limits the accuracy at small n_iter (wide kernels): up to a few
    1e-9 relative to the peak at n_iter = 1, roundoff from n_iter = 2.
    Intended for oracle checks on small grids, not production use.
    """
    if n_iter != int(n_iter) or int(n_iter) < 1:
        raise ValueError(f"iteration number must be a positive integer, got {n_iter}")
    st = int(n_iter) / grid.domain_width
    L = grid.domain_width
    dx = grid.pixel_size
    centers = grid.pixel_centers()
    X1 = centers[np.newaxis, :]  # column coordinate (x1)
    X2 = centers[:, np.newaxis]  # row coordinate (x2)
    out = np.zeros((grid.n_mesh, grid.n_mesh), dtype=np.float64)
    coef = 2.0 * np.pi * np.pi * st * st
    for pixel, sign in impulses:
        i, j = _unpack_pixel(pixel)
        c1 = (j + 0.5) * dx
        c2 = (i + 0.5) * dx
        acc = np.zeros_like(out)
        for m1 in (-L, 0.0, L):
            for m2 in (-L, 0.0, L):
                d1 = X1 - c1 + m1
                d2 = X2 - c2 + m2
                acc += np.exp(-coef * (d1 * d1 + d2 * d2))
        out += float(sign) * acc
    return DensityField(grid=grid, values=dx * dx * out)
