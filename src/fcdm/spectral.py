"""2D spectral machinery: the real-input transform pair, Gaussian low-pass
smoothing and the correlations the bandwidth search reads.

Conventions: the forward transform is unnormalized and the inverse carries
the 1/N^2 factor. Sample k of an N-point axis lives at frequency k/L for
k < N/2 and (k - N)/L for k >= N/2 (the wrapped layout of np.fft.fftfreq,
which the filter below reads). Smoothing in this space is circular, so
fields are implicitly L-periodic in both directions. Smoothing and the
correlations work on the half plane of real-input transforms (rfft2: every
row, columns 0..N/2), which half_spectrum computes once per field.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import DensityField, GridSpec


def _aliased_gaussian(grid, sigma_tilde):
    """Sum over m of exp(-(f + m N / L)^2 / (2 sigma_tilde^2)) at the wrapped frequencies f.

    One axis of the exact DFT of the periodized, pixel-sampled Gaussian
    kernel (Poisson summation). Copies are added in +/-m pairs until a
    whole pair underflows to zero; |f +/- m N / L| grows with m, so every
    later copy is zero too. Pairing keeps the result exactly even in f.
    """
    f = np.fft.fftfreq(grid.n_mesh, grid.pixel_size)
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


def _transfer_function(grid, n_iter):
    """smooth_density's transfer function at step n_iter on the rfft2 half plane.

    The outer product of the aliased axis sum with its columns 0..N/2,
    divided by 2 pi sigma_tilde^2, sigma_tilde = n_iter / L.
    """
    axis = _transfer_axis(grid, n_iter)
    st = int(n_iter) / grid.domain_width
    return np.outer(axis, axis[: grid.n_mesh // 2 + 1]) / (2.0 * np.pi * st * st)


@dataclass
class HalfSpectrum:
    """What half_spectrum returns: a field's grid and its (N, N/2 + 1) rfft2 values."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)


def half_spectrum(density):
    """rfft2 of a real field: all rows in wrapped order, columns 0..N/2.

    The columns N/2+1..N-1 of the full transform are the complex
    conjugates of mirrored half-plane entries, so this half determines
    the whole spectrum. It is the input of smooth_density,
    consecutive_correlations and the bandwidth search, so a field is
    transformed once however often it is smoothed.
    """
    return HalfSpectrum(grid=density.grid, values=np.fft.rfft2(density.values))


def smooth_density(spectrum, n_iter):
    """Low-pass a field, given as its half_spectrum, at bandwidth sigma_tilde = n_iter / L.

    Equivalent to circular convolution with the spatial Gaussian kernel
    dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2) sampled at pixel offsets and
    periodized over the domain. The spectrum is multiplied by that
    kernel's exact DFT: the continuous Gaussian profile
    G(f1, f2) = exp(-(f1^2 + f2^2) / (2 sigma_tilde^2)) / (2 pi sigma_tilde^2)
    plus its aliased copies, sum over m1, m2 of G(f1 + m1 N/L, f2 + m2 N/L),
    built as the outer product of one aliased sum per axis divided by
    2 pi sigma_tilde^2. The operation is linear in the input field.

    The transform pair is rfft2 / irfft2 on the half plane of
    non-negative x1 frequencies. irfft2 returns a real field whatever its
    input, which is the true inverse only for a transfer function even in
    f: the exact evenness check on the per-axis sum guards that. Returns
    the smoothed DensityField on the spectrum's grid.
    """
    grid = spectrum.grid
    n = grid.n_mesh
    transfer = _transfer_function(grid, n_iter)
    return DensityField(grid=grid, values=np.fft.irfft2(spectrum.values * transfer, s=(n, n)))


def consecutive_correlations(spectrum):
    """Yield c(n) = corr(smoothed at n, smoothed at n - 1) for n = 2, 3, ...

    spectrum is half_spectrum(raster) and the fields are what
    smooth_density(spectrum, n) returns. Computed on the spectrum,
    with no inverse transform. By Parseval, the centred inner product of
    the fields smoothed by real, even transfer functions T and T' is the
    sum over nonzero frequencies of |R|^2 T T' / N^2, R the raster's
    spectrum. On the rfft2 half plane columns 1..N/2-1 also stand for
    their mirror images and count twice, columns 0 and N/2 count once,
    and the DC term is left out, which is exactly the mean subtraction.
    The 1 / N^2 and 1 / (2 pi sigma_tilde^2) factors cancel in the
    correlation, and T = a (x) a is separable, so every sum is a
    quadratic form u @ P @ u[:N/2+1] with u the product of two axis
    vectors: O(N^2) per step and no N x N temporaries.

    Each value is clipped into [-1, 1] to absorb roundoff. A smoothed
    field with no variance raises ValueError. The sequence is endless;
    the caller stops reading it.
    """
    s = spectrum.values
    half = s.shape[1]
    power = s.real * s.real + s.imag * s.imag
    power[:, 1 : half - 1] *= 2.0
    power[0, 0] = 0.0

    def energy(u):
        return float(u @ power @ u[:half])

    prev = _transfer_axis(spectrum.grid, 1)
    prev_energy = energy(prev * prev)
    for n in itertools.count(2):
        axis = _transfer_axis(spectrum.grid, n)
        cur_energy = energy(axis * axis)
        if cur_energy == 0.0 or prev_energy == 0.0:
            raise ValueError("correlation undefined for a constant field")
        r = energy(axis * prev) / (np.sqrt(cur_energy) * np.sqrt(prev_energy))
        yield min(max(float(r), -1.0), 1.0)
        prev, prev_energy = axis, cur_energy
