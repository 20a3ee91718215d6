"""soclelab: center, radical and socle of modular group algebras.

For a finite group G and a prime p this package computes the center of F_pG,
its Jacobson radical and socle, decides whether the socle is an ideal of the
full group algebra (two independent ways), and checks the structural
reductions that govern when that happens.
"""

import os

# All F_p arithmetic is int64, which never calls BLAS: start OpenBLAS without
# its idle worker pool, then hand the caller's environment back unchanged.
_blas_default = "OPENBLAS_NUM_THREADS" not in os.environ
if _blas_default:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
from .algebra import CenterAlgebra
from .analysis import analyze_group, default_prime
from .errors import (ConsistencyError, InapplicableError, SocleLabError,
                     UnsupportedInputError)
from .formats import build_group, format_cayley, load_group_file, write_cayley
from .families import parse_family
from .groups import FiniteGroup

if _blas_default:
    del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "CenterAlgebra",
    "ConsistencyError",
    "FiniteGroup",
    "InapplicableError",
    "SocleLabError",
    "UnsupportedInputError",
    "analyze_group",
    "build_group",
    "default_prime",
    "format_cayley",
    "load_group_file",
    "parse_family",
    "write_cayley",
]

__version__ = "0.1.0"
