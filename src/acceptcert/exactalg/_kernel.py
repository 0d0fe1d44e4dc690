"""The arithmetic kernel used by :mod:`acceptcert.exactalg.cyclotomic`.

A plain re-export of :mod:`acceptcert.exactalg._purekernel`; there is one
kernel, written in Python.
"""

from ._purekernel import KERNEL_NAME, add, apply_rows, mul_mod, normalize, scale, sub

__all__ = ["KERNEL_NAME", "add", "apply_rows", "mul_mod", "normalize", "scale", "sub"]
