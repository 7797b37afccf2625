"""Server process of the ``loopback_tcp`` workload.

    PYTHONPATH=src python3 benchmarks/e2e/loopback_server.py MODEL SEED PORT

Serves ``repro.runtime.transport.run_server`` on 127.0.0.1:PORT, prints
``ready`` once the socket listens, and exits when a client sends
``shutdown``.  A plain subprocess rather than ``multiprocessing``, which
would leave a resource-tracker process behind the benchmark.
"""

import sys

from repro.runtime.transport import run_server


class _Ready:
    def set(self) -> None:
        print("ready", flush=True)


if __name__ == "__main__":
    run_server(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), _Ready())
