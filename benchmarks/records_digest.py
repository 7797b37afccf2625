"""The digest by which a report pins a whole simulated run.

``records_digest`` is the sha256 of the records' ``repr``, as the
end-to-end benchmark (``benchmarks/e2e/workloads.py``) computes it.  The
``repr`` prints every field of every record, floats to the last bit, so
two runs share a digest only when they produced equal records in the
same order.  ``tools/bench_compare.py`` pins each arm's digest to the
committed report.
"""

from __future__ import annotations

import hashlib


def records_digest(records) -> str:
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()
