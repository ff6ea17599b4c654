"""Exact symbolic computation of degenerate Bernoulli numbers and polynomials,
their generalizations through a formal Gauss hypergeometric generating
function, and the degenerate Stirling and Eulerian triangles they live on.

All arithmetic is exact, over Q[l] (polynomials in the degeneracy parameter),
Q(l), or Q[l][x].  Every major quantity has at least two independent
computation routes; the verify module runs the whole identity catalogue and
reports the first counterexample if any route disagrees.
"""

from . import bernoulli, exactcore, series, triangles, verify
from .bernoulli import *  # noqa: F401,F403
from .exactcore import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .triangles import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *exactcore.__all__,
    *series.__all__,
    *triangles.__all__,
    *bernoulli.__all__,
    *verify.__all__,
    "__version__",
]
