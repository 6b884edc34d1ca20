"""2D spectral machinery: the pruned real-input transform pair, Gaussian
low-pass smoothing and the correlations the bandwidth search reads.

Conventions: the forward transform is unnormalized and the inverse carries
the 1/N^2 factor. Sample k of an N-point axis lives at frequency k/L for
k < N/2 and (k - N)/L for k >= N/2 (the wrapped layout of np.fft.fftfreq,
which the filter below reads). Smoothing in this space is circular, so
fields are implicitly L-periodic in both directions. Everything works on
the rfft2 half plane (every row, columns 0..N/2), pruned exactly: the
filter axis is a sum of Gaussians whose float64 exp underflows to 0.0
(from column 194 on at n = 5, at any mesh of 512 or more), and a column
multiplied by exact zeros adds exact zeros to the smoothed field and to
every correlation sum. So the column fft and ifft skip the columns past
the filter's reach. numpy computes each 1-D transform on its own, so the
spectrum, the smoothed fields ((N, N) float64 arrays) and correlations
are bit for bit those of rfft2 (row rfft, column fft) and irfft2.
"""

import functools
import itertools

import numpy as np


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


@functools.lru_cache(maxsize=64)
def _transfer_axis(grid, n_iter):
    """One axis of smooth_density's transfer function at step n_iter, read-only.

    The aliased Gaussian sum at sigma_tilde = n_iter / L, in wrapped
    order and without the 1 / (2 pi sigma_tilde^2) factor. The half-plane
    transforms below take the transfer function to be even, T(-f) = T(f):
    that is what makes the smoothed field real and lets one half-plane
    column stand for its mirror. Pairing the alias copies keeps it exactly
    even, and that is checked here bit for bit. Memoised, N floats each:
    rebuilding them per class adds ~2 ms to a ~13 ms mesh-256, 45k-point train().
    """
    if n_iter != int(n_iter) or int(n_iter) < 1:
        raise ValueError(f"iteration number must be a positive integer, got {n_iter}")
    axis = _aliased_gaussian(grid, int(n_iter) / grid.domain_width)
    if not np.array_equal(axis[1:], axis[:0:-1]):
        raise ValueError("transfer function is not even; the smoothed field would not be real")
    axis.flags.writeable = False
    return axis


def _support(axis):
    """m such that half-plane columns m..N/2 of a transfer axis are exactly zero."""
    return int(np.flatnonzero(axis[: len(axis) // 2 + 1])[-1]) + 1


def _transfer_function(grid, n_iter):
    """A new (N, m) array, m = _support: smooth_density's transfer function at step n_iter."""
    axis = _transfer_axis(grid, n_iter)
    st = int(n_iter) / grid.domain_width
    return np.outer(axis, axis[: _support(axis)]) / (2.0 * np.pi * st * st)


class PrunedSpectrum:
    """A real field's rfft2 half plane, column-transformed only as far as it is read.

    Construction runs the row rfft. columns(m) is columns 0..m-1, an
    (N, m) view; the column fft runs in place only on those not computed
    yet. keep(n_iter) frees the columns smoothing at n_iter does not read.
    """

    def __init__(self, density):
        self.grid = density.grid
        self._buf = np.fft.rfft(density.values, axis=1)
        self.width = 0

    def columns(self, m):
        if m > self.width:
            if m > self._buf.shape[1]:
                raise ValueError(f"spectrum keeps {self.width} columns, {m} requested")
            new = slice(self.width, m)
            self._buf[:, new] = np.fft.fft(self._buf[:, new], axis=0)
            self.width = m
        return self._buf[:, :m]

    def keep(self, n_iter):
        m = _support(_transfer_axis(self.grid, n_iter))
        self._buf = np.ascontiguousarray(self.columns(m))  # copies unless m is the full width
        self.width = m


def smooth_density(spectrum, n_iter):
    """Low-pass a field, given as its PrunedSpectrum, at bandwidth sigma_tilde = n_iter / L.

    Equivalent to circular convolution with the spatial Gaussian kernel
    dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2) sampled at pixel offsets and
    periodized over the domain. The spectrum is multiplied by that
    kernel's exact DFT: the continuous Gaussian profile
    G(f1, f2) = exp(-(f1^2 + f2^2) / (2 sigma_tilde^2)) / (2 pi sigma_tilde^2)
    plus its aliased copies, sum over m1, m2 of G(f1 + m1 N/L, f2 + m2 N/L),
    built as the outer product of one aliased sum per axis divided by
    2 pi sigma_tilde^2. irfft returns a real field whatever its input,
    which is the true inverse only for a transfer function even in f: the
    exact evenness check on the per-axis sum guards that. Returns an (N, N) array.
    """
    grid = spectrum.grid
    m = _support(_transfer_axis(grid, n_iter))
    # the transfer function is built per call and freed before the inverse transforms
    filtered = np.fft.ifft(spectrum.columns(m) * _transfer_function(grid, n_iter), axis=0)
    return np.fft.irfft(filtered, n=grid.n_mesh, axis=1)


def consecutive_correlations(spectrum):
    """Yield c(n) = corr(smoothed at n, smoothed at n - 1) for n = 2, 3, ...

    The fields are what smooth_density(spectrum, n) returns, but no
    inverse transform runs. By Parseval, the centred inner product of the
    fields smoothed by real, even transfer functions T and T' is the sum
    over nonzero frequencies of |R|^2 T T' / N^2, R the raster's spectrum.
    On the half plane columns 1..N/2-1 also stand for their mirrors and
    count twice, and leaving the DC term out is the mean subtraction. The
    constant factors cancel, and T = a (x) a is separable, so every sum is
    a quadratic form u @ P[:, :m] @ u[:m] over the step's support m; P is
    filled in only for the columns a step adds. Values are clipped into
    [-1, 1]; a field with no variance raises ValueError. The sequence is
    endless; the caller stops reading it.
    """
    grid = spectrum.grid
    power = np.empty((grid.n_mesh, grid.n_mesh // 2 + 1))
    done = 0

    def grow(axis):
        nonlocal done
        m = _support(axis)
        if m > done:
            s = spectrum.columns(m)[:, done:m]
            power[:, done:m] = s.real * s.real + s.imag * s.imag
            power[:, max(done, 1) : min(m, power.shape[1] - 1)] *= 2.0
            power[0, 0] = 0.0
            done = m
        return m

    def energy(u, m):
        return float(u @ power[:, :m] @ u[:m])

    prev = _transfer_axis(grid, 1)
    prev_energy = energy(prev * prev, grow(prev))
    for n in itertools.count(2):
        axis = _transfer_axis(grid, n)
        m = grow(axis)
        cur_energy = energy(axis * axis, m)
        if cur_energy == 0.0 or prev_energy == 0.0:
            raise ValueError("correlation undefined for a constant field")
        r = energy(axis * prev, m) / (np.sqrt(cur_energy) * np.sqrt(prev_energy))
        yield min(max(float(r), -1.0), 1.0)
        prev, prev_energy = axis, cur_energy
