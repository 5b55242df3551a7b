"""loopoid-lab: charted quasiloopoids, their infinitesimal skew brackets,
tangent/cotangent structure, and discrete Lagrangian mechanics."""

__version__ = "0.1.0"

# Import every layer module with the package: perfbench/layertrace.py finds
# them in sys.modules when it installs its wrappers.
from . import (  # noqa: F401
    _kernels,
    algebroid,
    finite,
    loopoids,
    loops,
    mechanics,
    newton,
    numdiff,
    octonion,
    specio,
    tangent,
)
