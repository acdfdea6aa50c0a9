"""Peak traced allocation of one call, measured the way
`Runner.peak_alloc_bytes` in bench/run.py measures a CLI call, and a cached
junction quadrature that keeps the quadrature out of a measured call."""

import functools
import gc
import tracemalloc

from cavityclock.modes import _junction_blocks


@functools.lru_cache(maxsize=None)
def cached_junction_blocks(h, n_max, tol=1e-12):
    """`modes._junction_blocks`, the junction quadrature, computed once per
    argument tuple: patched in as `modes._junction_blocks`, the warm-up
    call of `peak_bytes` fills it."""
    return _junction_blocks(h, n_max, tol)


def peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc traces during one call of `fn`.  One
    untraced warm-up call fills caches and lazy imports first, and a
    garbage collection drops what earlier calls left behind."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
