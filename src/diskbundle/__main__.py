"""Entry point of ``python -m diskbundle`` and of the ``diskbundle`` console script.

Before numpy loads, it pins OpenBLAS to one thread, unless the caller set
any of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` (OpenBLAS's own variables, in its order of
precedence), whose choice then stands. The commands' linear algebra is
batched small matrices and order-64 sections, which a second thread does
not speed up, while an idle OpenBLAS worker spins for 125-160 ms of CPU in
every run (2 cores, numpy 2.4 with OpenBLAS 0.3.31). Importing the library
(``diskbundle``, ``diskbundle.cli``, ...) leaves the environment alone;
only this module sets the variable.
"""

import os
import sys

if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402  (numpy reads the variable when it loads)

if __name__ == "__main__":
    sys.exit(main())
