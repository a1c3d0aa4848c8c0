"""clams - Cascaded-Lambda Atomic Manifold Simulator.

Numerical toolkit for driven multilevel atoms arranged in a cascaded-Lambda
chain: rotating-frame Hamiltonians, rate-based master-equation steady states,
the reduced non-Hermitian ground-manifold dynamics with imaginary hopping,
coherence power-spectrum peaks and height ratios, perturbative multi-photon
transition rates, and the full 16-state Zeeman model of the driven Rb-85 D2
line.
"""
from . import effective, level_system, liouvillian, rates, spectrum, units
from .effective import *
from .level_system import *
from .liouvillian import *
from .rates import *
from .spectrum import *
from .units import *

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = [
    "__version__",
    *(name for module in (level_system, liouvillian, effective, rates, spectrum, units)
      for name in module.__all__),
]
