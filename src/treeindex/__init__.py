"""treeindex: spectral radius extremality toolkit for trees with
prescribed degree sequences.

The package provides immutable tree structures with the usual families
(`trees`), index/Perron-vector computation and valuation checks
(`spectral`), certified degree-preserving rearrangements (`transforms`),
and isomorph-free exhaustive search over degree-sequence classes
(`enumeration`).  The public names of these four modules are importable
from the package too.  `cli` exposes the same machinery as a command line.
"""

# Each module's __all__ is the one list of its public names.
from .trees import *
from .spectral import *
from .transforms import *
from .enumeration import *

__version__ = "0.1.0"
