"""Set-up probe: a fresh interpreter gets the simulator ready to run.

``python3 perfbench/setup_probe.py <launch time>`` imports the ``repro``
entry points the workloads call, resolves every registered scheme to its
fast-engine controller class, and prints the seconds since
``<launch time>`` (a ``time.monotonic()`` value the parent read just
before starting this process).
"""

import os
import sys
import time


def main() -> None:
    launched = float(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import repro.certify.harness  # noqa: F401
    import repro.sim.runner  # noqa: F401
    import repro.telemetry  # noqa: F401
    from repro.schemes import REGISTRY

    for name in REGISTRY.names():
        REGISTRY.get(name).controller_class("fast")
    print(repr(time.monotonic() - launched))


if __name__ == "__main__":
    main()
