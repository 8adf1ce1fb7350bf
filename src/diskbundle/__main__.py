"""Entry point of ``python -m diskbundle`` and of the ``diskbundle`` console script.

``python -m diskbundle.cli`` runs :func:`main` too; ``cli`` imports no
numpy at module level, so the thread pin below reaches that spelling as
well.

Before numpy loads, it pins OpenBLAS to one thread, unless the caller set
any of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` (OpenBLAS's own variables, in its order of
precedence), whose choice then stands. The commands' linear algebra is
batched small matrices and order-64 sections, which a second thread does
not speed up, while an idle OpenBLAS worker spins for 125-160 ms of CPU in
every run (2 cores, numpy 2.4 with OpenBLAS 0.3.31).

``main`` turns the garbage collector off, imports ``cli`` and runs
``cli.main``, whose command loads numpy. With the collector on, importing
numpy and ``cli`` takes 29 generation-0 and 2 generation-1 passes, about
6 ms, which free 336 objects; a command's run takes at most a few more,
and its arrays make no reference cycles. Then ``main`` flushes stdout, freezes the collector
and turns it back on if it was on. Interpreter shutdown runs full
collections over every object still alive, about 22k with numpy and a
command's layers loaded, at 7-9 ms each, even with the collector off; it
skips frozen objects, which cuts the time from the end of the run to the
exit of the process from 33-39 ms to 8-9 ms (2 cores, Python 3.11, numpy
2.4). No output depends on those collections: the run's files are closed,
and shutdown still flushes stdio and runs atexit handlers. If the reader
of stdout has gone (``diskbundle ... | head -c0``), stdout is pointed at
``os.devnull``, so the run keeps its exit code and shutdown writes no
error to stderr.

Importing the library (``diskbundle``, ``diskbundle.cli``, ...) leaves the
environment, the threads and the collector alone: only this module sets
the variable, and only its ``main`` changes the collector.
"""
import gc
import os
import sys

if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    """``cli.main(argv)``'s exit code, run with the collector off and frozen for shutdown."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        from . import cli  # the command's layers load numpy, with the collector off and the variable above set

        return cli.main(argv)
    finally:
        try:
            if sys.stdout is not None:  # None when the process started with fd 1 closed
                sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
