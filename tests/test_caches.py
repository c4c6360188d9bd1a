"""polybound's process-wide state is eight memo caches of pure functions.

A cache stays only where a benchmark pass repeats the work it saves:
scripts/cache_traffic.py prints each cache's hits and misses per pass.
A new cache needs an edit here, backed by such figures.
"""

from polybound import basis, bounder, boxopt, cli, limiter, meshcheck

CACHES = {
    "basis.gauss_legendre_rule",
    "basis.make_basis",
    "basis._bary_weights",
    "boxopt._lapack",
    "boxopt._gelsd_work",
    "boxopt._qr_work",
    "boxopt._sample_matrix",
    "limiter._operators",
}


def test_the_process_wide_caches_are_the_eight_named():
    found = {f"{module.__name__.rpartition('.')[2]}.{name}"
             for module in (basis, bounder, boxopt, meshcheck, limiter, cli)
             for name, obj in vars(module).items()
             if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert found == CACHES
