"""Fourier spectral solver for the periodic cubic fractional NLS equation

    i u_t - (-d_xx)^s u + |u|^2 u = 0,    x in (-L, L),  0 < s <= 1,

with symmetric implicit-midpoint composition time integrators, reference
traveling waves, and an experiment harness for convergence, conservation,
and wave-tracking studies.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from .errors import *
from .spectral import *
from .model import *
from .integrators import *
from .waves import *
from .io import *
from .harness import *

__all__ = (errors.__all__ + spectral.__all__ + model.__all__ + integrators.__all__
           + waves.__all__ + io.__all__ + harness.__all__)

__version__ = "0.1.0"
