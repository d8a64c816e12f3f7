"""Pin BLAS to one thread for the whole suite, as CI and perfbench/run.py do.

OpenBLAS reads these variables once, when numpy loads it, so they are set
here, before any test module imports numpy. On a small shared host a
multi-threaded BLAS makes perfbench's calibration kernel several times
slower than its 1.5 ms design (about 24 ms on two cores), which starves
the short measuring windows that perfbench's own tests drive.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
