"""Run BLAS on one thread unless the environment already sets a count.

Test modules import numpy before airfd, so the package's own default would
come too late; conftest is loaded before them.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
