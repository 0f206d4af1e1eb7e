import numpy as np
import pytest

from fnls import Field, SpectralGrid

# Data scaled by LINEAR_SCALE follows the linear flow i u_t = (-d_xx)^s u
# exactly: its cubic term, of size 2^-1200, underflows to exactly 0 under
# numpy's default error handling, and a power-of-two scale is exact, so
# dividing the result by it gives the linear flow of the unscaled data.
LINEAR_SCALE = 2.0 ** -400


def smooth_random_field(grid: SpectralGrid, seed: int, amplitude: float = 1.0,
                        bandwidth: float = 4.0) -> Field:
    """Gaussian-filtered random coefficients, rescaled to the given peak."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
    c *= np.exp(-((grid.wavenumbers / bandwidth) ** 2))
    # coefficients of the modes e^{i pi k x / L} on nodes from x = -L:
    # the alternating phase (-1)^k maps them to a plain inverse FFT
    vals = np.fft.ifft(c * (-1.0) ** grid.wavenumbers) * grid.N
    vals *= amplitude / np.max(np.abs(vals))
    return Field(vals, grid)


@pytest.fixture
def small_grid():
    return SpectralGrid(64, np.pi)
