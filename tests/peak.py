"""Peak traced allocation of one call, measured the way
`Runner.peak_alloc_bytes` in bench/run.py measures a CLI call."""

import gc
import tracemalloc


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
