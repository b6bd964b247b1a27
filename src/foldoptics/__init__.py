"""Two-phase geometric optics beyond caustics: WKB fields, uniform Airy
fields, and semiclassical Wigner functions for the fold singularity.

The package exports exactly the names in each library module's __all__."""

__version__ = "0.1.0"

from .specfun import *
from .rays import *
from .wkb import *
from .kl import *
from .stphase import *
from .wigner import *
from .surgery import *
