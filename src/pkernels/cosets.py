"""Names kept for perfbench only; the package has no double-coset code.

The incidence engine does not use Iwahori double-coset products, and the
sandwich condition they served is superseded by the theorem gates in
tests/test_theorems.py.  perfbench/workloads.py still reads the two cache
dicts and calls clear_caches, and perfbench/tracer.py iterates __all__,
so these stay, empty, until the benchmark drops them.
"""

__all__ = []

_left_tables = {}
_right_tables = {}


def clear_caches():
    _left_tables.clear()
    _right_tables.clear()
