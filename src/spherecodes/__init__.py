"""Spherical codes from Z_q Euclidean-metric codes.

Library layout:

- :mod:`spherecodes.euclid`   alphabet embeddings, weights, distances, lift
- :mod:`spherecodes.counting` exact ball sizes and saddle-point exponents
- :mod:`spherecodes.bounds`   rate curves, trade-off lines, feasibility region
- :mod:`spherecodes.gf`       GF(p), GF(p^k), Reed-Solomon, primality
- :mod:`spherecodes.codes`    greedy Gilbert, Lee BCH, concatenation, lift
- :mod:`spherecodes.kernels`  hot loops: scans, greedy selection, sweeps
- :mod:`spherecodes.verify`   the acceptance criteria suite
- :mod:`spherecodes.cli`      command-line frontend
"""

from .bounds import (
    BoundPoint,
    TangentLine,
    TVZParams,
    emit_curve,
    envelope_point,
    gilbert_yaglom_rate,
    lachaud_stern_rate,
    lattice_rate,
    lattice_rate_shifted,
    region_residual,
    shannon_rate,
    tangent_line,
    tau_window,
    tvz_line,
)
from .codes import (
    ConcatenatedCode,
    LeeBCH,
    SphericalCodeResult,
    concatenate,
    greedy_gilbert,
    lee_bch,
    primality_check,
    to_spherical,
)
from .counting import (
    SaddleSolution,
    WeightEnumerator,
    ball_size,
    enumerator,
    saddle_solve,
    theta_defect,
    theta_saddle,
)
from .euclid import (
    Constellation,
    constellation,
    embed,
    euclid_weight,
    lee_weight,
    min_sq_distance,
    sq_euclid_distance,
    yaglom_lift,
)
from .gf import ExtField, RSCode, is_probable_prime

__version__ = "0.1.0"

__all__ = [
    "BoundPoint",
    "ConcatenatedCode",
    "Constellation",
    "ExtField",
    "LeeBCH",
    "RSCode",
    "SaddleSolution",
    "SphericalCodeResult",
    "TVZParams",
    "TangentLine",
    "WeightEnumerator",
    "ball_size",
    "concatenate",
    "constellation",
    "embed",
    "emit_curve",
    "enumerator",
    "envelope_point",
    "euclid_weight",
    "gilbert_yaglom_rate",
    "greedy_gilbert",
    "is_probable_prime",
    "lachaud_stern_rate",
    "lattice_rate",
    "lattice_rate_shifted",
    "lee_bch",
    "lee_weight",
    "min_sq_distance",
    "primality_check",
    "region_residual",
    "saddle_solve",
    "shannon_rate",
    "sq_euclid_distance",
    "tangent_line",
    "tau_window",
    "theta_defect",
    "theta_saddle",
    "to_spherical",
    "tvz_line",
    "yaglom_lift",
]
