#!/usr/bin/env python3
"""``repro-sim serve`` in this process, for the ``svc-mixed`` workload.

    python3 perfbench/serve_child.py [--ledger-dir DIR] SERVE-ARGS...

Without ``--ledger-dir`` this is exactly ``repro-sim serve SERVE-ARGS``.
With it, the traced run's wrappers are installed before the service
starts: the service layers in this process, the simulator layers in the
pool workers it forks.  Workers dump their ledgers to ``DIR/workers``
after every cell; this process writes ``DIR/server.json`` once it has
drained.  Needs ``src`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    from repro.cli import main as cli_main

    if args[:1] != ["--ledger-dir"]:
        return int(cli_main(["serve"] + args))
    directory, args = args[1], args[2:]
    from ledger import Ledger, Patcher
    from layers import (install_engine_layers, install_service_layers,
                        install_worker_dump)

    ledger = Ledger()
    workers = os.path.join(directory, "workers")
    os.makedirs(workers, exist_ok=True)
    with Patcher() as patcher:
        install_engine_layers(patcher, ledger)
        install_worker_dump(patcher, ledger, workers)
        install_service_layers(patcher, ledger)
        try:
            return int(cli_main(["serve"] + args))
        finally:
            ledger.dump(os.path.join(directory, "server.json"))


if __name__ == "__main__":
    sys.exit(main())
