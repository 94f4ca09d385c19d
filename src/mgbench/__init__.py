"""Nonlinear AMLI-cycle multigrid solvers and convergence benchmark harness."""

from .amli import (CycleParams, PcgState, PCGBreakdownError, SolveReport,
                   apply_amli, apply_amli_ns, apply_amli_tilde,
                   apply_amli_tilde_ns, apply_backslash, apply_cycle,
                   apply_v_cycle, nonlinear_pcg, required_n, run_pcg,
                   stationary_solve)
from .hierarchy import (Aggregation, CoarseningStagnation, Hierarchy, Level,
                        aggregate, build_geometric, build_ua_amg,
                        geometric_prolongator, piecewise_constant_prolongator)
from .linalg import (DENSE_LIMIT, DenseFactorization, NonSPDError, a_norm,
                     as_csr, rap, spectral_radius, spmv, symmetry_error)
from .problems import (CoefficientField, MeshLevel, assemble_jump,
                       assemble_poisson)
from .smoothers import BoundSmoother, SmootherSpec, bind

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
