"""Sample arithmetic shared by the benchmark: medians, the tail
percentile rule and the failure fraction.

Kept free of any ``repro`` import so the benchmark's own tests can pin
it without the package on the path.
"""

from __future__ import annotations

import statistics

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: ``value`` is the order statistic
    ``x[n - beyond - 1]`` of the sorted samples, ``percentile`` the share
    of samples at or below that position (in percent) and ``n`` the
    sample count.  Raises ``ValueError`` when fewer than ``beyond + 1``
    samples exist, because then no percentile has enough support.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < beyond + 1:
        raise ValueError(f"{n} samples cannot support a tail with "
                         f"{beyond} samples beyond it")
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def median(samples) -> float:
    """The sample median (``statistics.median``)."""
    return statistics.median(samples)


def failed_frac(attempted: int, failed: int = 0, rejected: int = 0,
                wrong_digest: int = 0) -> float:
    """Share of attempted requests that did not return a right answer.

    A request counts once whichever way it went wrong: it failed in
    the server, it was refused at admission, or it returned a digest
    other than its first execution's (or the direct re-run's).
    """
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    bad = failed + rejected + wrong_digest
    if bad > attempted:
        raise ValueError(f"{bad} bad requests out of {attempted} attempted")
    return bad / attempted
