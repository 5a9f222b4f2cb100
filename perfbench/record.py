#!/usr/bin/env python3
"""Record the reference result table of every workload and input set.

    python3 perfbench/record.py [workload ...]

The benchmark checks each run's result table against these, so record them
at the commit whose answers later changes must reproduce.  Overwrites
perfbench/reference/<workload>.json.
"""

import json
import os
import sys
import time

import run


def record(workload):
    subcommand = run.WORKLOADS[workload][0]
    wdir = os.path.join(run.WORK_DIR, "record", workload)
    os.makedirs(wdir, exist_ok=True)
    tables = {}
    for index in range(run.INPUT_SETS):
        _, config = run.make_inputs(workload, index)
        config_path = os.path.join(wdir, "config%d.json" % index)
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        out_dir = os.path.join(wdir, "out%d" % index)
        report, err = run.run_child(
            "count", subcommand, config_path, out_dir,
            os.path.join(wdir, "report%d.json" % index),
            time.monotonic() + run.RUN_DEADLINE_S)
        if err:
            raise SystemExit("%s input %d: %s" % (workload, index, err))
        with open(os.path.join(out_dir, subcommand + "_results.json")) as fh:
            doc = json.load(fh)
        bad = run.check_rows(doc["rows"])
        if bad:
            raise SystemExit("%s input %d: %s" % (workload, index, bad))
        tables[str(index)] = doc
        print("%s input %d: %d rows" % (workload, index, len(doc["rows"])),
              flush=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(run.REFERENCE_DIR, workload + ".json"), "w") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        record(name)
