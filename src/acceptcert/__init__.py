"""acceptcert: exact conjugacy certificates for finite subgroups of compact classical groups.

The package decides, with exact cyclotomic arithmetic only, whether two
homomorphisms from a finite group into a product of SU(n) / Sp(1) factors
(possibly modulo a central subgroup) are element-conjugate and whether they
are globally conjugate, and it re-verifies a registry of concrete
certificate families plus a double-coset criterion for symmetric pairs.
SO(3) is an Sp(1) factor whose -1 lies in the central subgroup:
``grpcore.GroupSpec((sp1_factor(),), center_gens=((-Quat.one(),),))``.
"""

__version__ = "0.1.0"

from .certsuite import registry, run, run_all
from .exactalg import KERNEL_NAME
from .homcheck import HomPair, decide_global, is_element_conjugate

__all__ = [
    "KERNEL_NAME",
    "HomPair",
    "decide_global",
    "is_element_conjugate",
    "registry",
    "run",
    "run_all",
    "__version__",
]
