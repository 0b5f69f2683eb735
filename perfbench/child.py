"""One benchmark process: run a workload once and write what it measured.

    python3 perfbench/child.py WORKLOAD WORKDIR TRACE SETUP_ONLY

The parent (run.py) starts this process, writes WORKDIR/inputs.json
beforehand and reads WORKDIR/result.json afterwards. Timestamps are
``time.monotonic()``, one clock for every process on the machine, so the
parent can put its own stamps and the speed probes of this process on
one time line (see speed.py).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from speed import Sampler

# probing starts before the package is imported, so set-up is sampled too
SAMPLER = Sampler()
SAMPLER.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from superlocal import _kernels, cli, harness  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORTED = time.monotonic()  # the end of the start stretch (see speed.py)


class SetupDone(BaseException):
    """Ends a set-up probe at its first graph; no handler in the package catches it."""


def main(argv):
    name, work, trace, setup_only = argv[0], Path(argv[1]), argv[2] == "1", argv[3] == "1"
    workload = WORKLOADS[name]
    inputs = json.loads((work / "inputs.json").read_text(encoding="ascii"))
    tracer = Tracer(SAMPLER.work_clock)
    if trace:
        tracer.install()
    result = {"imported": IMPORTED, "first_item": None, "items": [], "backend": _kernels.ACTIVE}

    def mark_first(fn):
        def first(*args, **kwargs):
            if result["first_item"] is None:
                result["first_item"] = time.monotonic()
                if setup_only:
                    raise SetupDone
            return fn(*args, **kwargs)

        return first

    def item_clock(fn):
        def timed(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                result["items"].append((t0, time.monotonic()))

        return timed

    main_fn = tracer.wrap(cli.main, "cli.main") if trace else cli.main
    if workload.item_binding == "check":
        harness.check_graph = item_clock(mark_first(harness.check_graph))
        harness.check_multigraph = item_clock(mark_first(harness.check_multigraph))
    else:
        # the item is the whole CLI call; set-up ends where colouring starts
        cli.edge_colour = mark_first(cli.edge_colour)
        main_fn = item_clock(main_fn)
    code = 0
    try:
        code = workload.run(inputs, str(work / "out"), main_fn)
    except SetupDone:
        pass
    SAMPLER.stop()
    sys.stdout.flush()
    result["probes"] = SAMPLER.probes
    if trace:
        result["layers"] = tracer.layer_metrics()
    (work / "result.json").write_text(json.dumps(result), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
