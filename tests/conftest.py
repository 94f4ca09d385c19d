"""Suite-wide settings: one BLAS thread, and scipy's sparse efficiency
warnings as errors.

The thread variables must be set before numpy is first imported: on a
small VM a threaded BLAS makes every dot product or norm above about 10,000
entries pay a thread hand-off, 5-8 ms against 18 us with one thread at
65,025 entries (2 vCPUs, OpenBLAS).  perfbench/run.py sets the same
variables.  pytest resolves the category of every filterwarnings ini entry
before it loads any conftest, so the scipy filter is added here, after the
variables are set, rather than in pyproject.toml.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def pytest_configure(config):
    # a smoother or transfer that hands scipy a non-CSR/CSC matrix fails the
    # tests instead of being converted on every call
    config.addinivalue_line("filterwarnings",
                            "error::scipy.sparse.SparseEfficiencyWarning")
