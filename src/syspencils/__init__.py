"""Vector spaces of matrix-pencil linearizations for state-space systems.

The package constructs, samples and verifies pencils ``lambda X + Y``
attached to a realization (A(lambda), B, C, D(lambda)) of a transfer
function ``G(lambda) = C A(lambda)^{-1} B + D(lambda)``: the first and
second ansatz spaces, their one-dimensional intersection, symmetric and
Hermitian structured members, companion forms, eigenvector recovery and
non-monomial polynomial bases.  The package republishes the public names
(``__all__``) of its modules; the file formats stay in ``syspencils.io``.
"""

from .basis import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .shiftsum import *  # noqa: F403
from .spaces import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"
