import os

# Pin BLAS/OpenMP pools to one thread before numpy loads anywhere, so every
# reduction has a fixed order and training runs are bitwise reproducible
# (the determinism acceptance criterion is checked under this pinning).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402 - after the thread pinning above

# Property tests draw the same examples on every run and write no example
# database, so a failure reproduces and the suite leaves no .hypothesis/ behind.
# Each test keeps its own max_examples.
settings.register_profile("ocusim", derandomize=True, database=None)
settings.load_profile("ocusim")
