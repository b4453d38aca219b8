"""Iterative regularization of ill-posed linear systems over the
shift-and-invert rational Krylov subspace, with a conjugate-gradient
baseline on the polynomial subspace, discrepancy-principle stopping,
spectral diagnostics, and reproduction harnesses.

Each module's ``__all__`` says what it makes public; the package
re-exports all of them and lists them in ``__all__`` in module order."""

from . import (cgne, diagnostics, exceptions, experiments, operators,
               problems, sine, spaces, stopping)
from .cgne import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .sine import *  # noqa: F401,F403
from .spaces import *  # noqa: F401,F403
from .stopping import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (cgne, diagnostics, exceptions, experiments, operators,
                               problems, sine, spaces, stopping)
           for name in module.__all__]
