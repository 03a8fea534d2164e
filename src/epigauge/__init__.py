"""epigauge: certified perturbation gauges from epigraphic certificates.

The library converts certified bracketing / tolerance information about a
pair of scalar objectives into a scalar gauge bound on a cylinder, turns
that bound into pointwise value control inside the cylinder's window, and,
under quadratic growth of the target, into a minimizer-displacement
certificate.  Brute-force lattice oracles provide independent ground truth
for every bound, and canonical counterexample constructions demonstrate
the structural limits (strictness, finite-query impossibility, sharpness
of the square-root rate).

A re-exported module's ``__all__`` is what the package exports from it.
"""

from . import certificates, constructions, core, errors, oracle, stability
from .certificates import *
from .constructions import *
from .core import *
from .errors import *
from .oracle import *
from .stability import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *certificates.__all__,
    *stability.__all__,
    *constructions.__all__,
    *oracle.__all__,
    *errors.__all__,
]
