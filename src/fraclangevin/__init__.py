"""Langevin dynamics regularized by fractional Brownian motion.

Simulation of fBm (exact and Volterra-kernel routes), the
Ornstein-Uhlenbeck velocity process, the fractional velocity transform,
and estimators for the Hurst index (rescaled range) and the transform
amplitude.  All randomness is reproducible through seeded
:class:`NoiseStream` values.  The public names are those of the module
``__all__`` lists.
"""

from . import core, fbm, fractional, hurst, kernels, langevin, noise
from .core import *
from .fbm import *
from .fractional import *
from .hurst import *
from .kernels import *
from .langevin import *
from .noise import *

__all__ = [*core.__all__, *fbm.__all__, *fractional.__all__, *hurst.__all__,
           *kernels.__all__, *langevin.__all__, *noise.__all__]

__version__ = "0.1.0"
