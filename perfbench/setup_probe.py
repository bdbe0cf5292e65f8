"""Set-up time of one fresh process, or of the fixed start-up reference.

Usage:
    python3 setup_probe.py SRC_DIR CONFIG   prints {"setup_s": seconds}
    python3 setup_probe.py                  prints {"reference_s": seconds}

The first form imports prescurv, parses a config and builds the problem.
Building the problem includes the mesh and, for a manufactured prescription,
loading the target CSV and running manufacture_f.

The second form imports a fixed set of standard-library modules instead: the
same kind of work (reading and running compiled modules in a fresh
interpreter) but independent of prescurv, numpy and scipy.  On a shared
2-vCPU VM whose speed changes from second to second, the median of five
set-up probes over the median of the reference probes around them varied by
4 % across windows, where the median of the set-up probes alone varied by
13 %.  Do not change the module list: set-up times measured before and after
a change would no longer compare.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

REFERENCE_MODULES = ("asyncio", "decimal", "email.mime.multipart", "http.server",
                     "xml.dom.minidom", "argparse", "unittest", "logging.handlers",
                     "urllib.request", "typing", "dataclasses", "inspect", "pydoc")


def setup(src: str, config: str) -> float:
    sys.path.insert(0, src)
    import prescurv.cli  # noqa: F401  (the `prescurv` entry point's imports)
    from prescurv.config import build_problem, parse_config

    build_problem(parse_config(config))
    return time.perf_counter() - START


def reference() -> float:
    import importlib

    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - START


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(json.dumps({"setup_s": setup(sys.argv[1], sys.argv[2])}))
    else:
        print(json.dumps({"reference_s": reference()}))
