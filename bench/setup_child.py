"""Set-up probe, run by run.py in a fresh interpreter per sample.

Times what every ``slabflow run`` pays before its first substep:
``import slabflow``, then ``load_scenario`` and ``build_slice_plan`` for
the given scenario files, then the first solver call in each dimension
the workload uses (one substep of a bundled scenario: heat_fixed in 1D,
disk2d in 2D), which is where lazy initialisation would show.  Prints one
JSON object with the four times in seconds.

    python3 bench/setup_child.py SRC_DIR DIMS SCENARIO.cfg [...]

DIMS is a comma-separated list such as ``1,2``.
"""

import json
import sys
import time
from dataclasses import replace

WARM_UP = {1: "heat_fixed", 2: "disk2d"}


def main(argv):
    src, dims, paths = argv[0], [int(d) for d in argv[1].split(",")], argv[2:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import slabflow as sf

    t1 = time.perf_counter()
    scenarios = [sf.load_scenario(p) for p in paths]
    t2 = time.perf_counter()
    for sc in scenarios:
        sf.build_slice_plan(sc.domain, sc.grid, sc.n_slices)
    t3 = time.perf_counter()
    bundled = sf.bundled_scenario_paths()
    for dim in dims:
        sc = sf.load_scenario(bundled[WARM_UP[dim]])
        sf.run_scheme(replace(sc, n_slices=1, substeps=1))
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "plan_s": t3 - t2,
                      "first_call_s": t4 - t3}))


if __name__ == "__main__":
    main(sys.argv[1:])
