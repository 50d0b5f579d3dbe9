"""Every test runs on one OpenBLAS thread.

On a machine whose cores are shared with other processes, a second BLAS
thread spins for a busy core: wall-clock-bounded tests then fail and
BLAS-heavy ones slow down many times over.  The pin acts on this process's
OpenBLAS only; the environment that child processes inherit is left as it is.
"""
import numpy  # noqa: F401  (before starkrylov.cli, which would start OpenBLAS on one thread)
import pytest

from starkrylov import cli


@pytest.fixture(autouse=True)
def blas_threads_before_pin():
    """Pin OpenBLAS to one thread for the test and restore the count after
    it; yields the count from before the pin (None when numpy's bundled
    OpenBLAS thread functions are not found, and nothing is pinned)."""
    blas = cli._openblas_threads()
    if blas is None:
        yield None
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield before
    finally:
        set_(before)
