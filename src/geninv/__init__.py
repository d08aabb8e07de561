"""Generalized inverses of dense complex matrices, with certificates.

The package computes the Moore-Penrose, (1,3), group, Drazin, core and
pseudo core (core-EP) inverses, each returned together with the residuals of
its defining equations, and ships a verifier plus seeded instance generators
for a catalog of additive and 2x2-block identities built on those inverses.
"""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_POLICY,
    DimensionError,
    TolerancePolicy,
    approx_equal,
    as_matrix,
    is_nilpotent,
    numerical_rank,
)
from .inverses import (
    GenInverseResult,
    InverseNotDefinedError,
    core_inverse,
    drazin,
    group_inverse,
    index,
    is_star_dmp,
    moore_penrose,
    one_three,
    pseudo_core,
    spectral_idempotent,
)
from .theorems import (
    Check,
    TheoremReport,
    THEOREM_SYMBOLS,
    reproduce_example_3_3,
    run_check,
)
from .generators import Instance, instance_for

__all__ = [
    "__version__",
    "DEFAULT_POLICY",
    "DimensionError",
    "TolerancePolicy",
    "approx_equal",
    "as_matrix",
    "is_nilpotent",
    "numerical_rank",
    "GenInverseResult",
    "InverseNotDefinedError",
    "core_inverse",
    "drazin",
    "group_inverse",
    "index",
    "is_star_dmp",
    "moore_penrose",
    "one_three",
    "pseudo_core",
    "spectral_idempotent",
    "Check",
    "TheoremReport",
    "THEOREM_SYMBOLS",
    "reproduce_example_3_3",
    "run_check",
    "Instance",
    "instance_for",
]
