"""Exact spectral analysis of Boolean functions on the hypercube.

Truth tables are bit-packed, spectra are computed by an integer fast
Walsh-Hadamard transform, and every reported quantity (Fourier coefficient,
influence, degree weight, noise stability) is an exact rational.
"""

__version__ = "0.1.0"

from . import conjecture, core, fourier, ltf
from .conjecture import *  # noqa: F403
from .core import *  # noqa: F403
from .fourier import *  # noqa: F403
from .ltf import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *fourier.__all__,
    *ltf.__all__,
    *conjecture.__all__,
]
