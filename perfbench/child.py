# One dielscat CLI study in a fresh process, with probes installed.
#
#   python3 perfbench/child.py --mode count|trace|setup --report R.json -- \
#       <dielscat CLI arguments>
#
# The parent sets PERFBENCH_SPAWN_T to its time.monotonic() just before it
# starts this process (CLOCK_MONOTONIC is system-wide on Linux), so the time
# to the first call into the study runner is the set-up time: interpreter
# start, imports, parse_config and creating the output directory.  Mode
# "setup" stops there: the runner is replaced by one that returns 0.

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from dielscat import cli  # noqa: E402
from probes import Probe  # noqa: E402


def host():
    """Library versions and the thread count each bundled OpenBLAS reports."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    info = {"python": platform.python_version()}
    for pkg in (numpy, scipy):
        name = pkg.__name__
        info[name] = pkg.__version__
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[name + "_blas"] = "%s %s" % (blas["name"], blas["version"])
        except (TypeError, KeyError):
            info[name + "_blas"] = "unknown"
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info[name + "_blas_threads"] = fn()
                    break
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("count", "trace", "setup"),
                        required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    spawn = float(os.environ["PERFBENCH_SPAWN_T"])
    subcommand = argv[0]
    entered = []

    def study_stub(config, out, fmt):
        return 0

    probe = Probe(timed=args.mode == "trace")
    runner = cli.RUNNERS[subcommand]
    with probe:
        # the runner span is the study's wall time; it is always timed
        span = probe.wrap("cli.study",
                          study_stub if args.mode == "setup" else runner)

        def timed_runner(*a):
            entered.append(time.monotonic())
            t0 = time.perf_counter()
            try:
                return span(*a)
            finally:
                entered.append(time.perf_counter() - t0)

        cli.RUNNERS[subcommand] = timed_runner
        try:
            rc = cli.main(argv)
        finally:
            cli.RUNNERS[subcommand] = runner
    report = {
        "rc": rc,
        "setup_s": entered[0] - spawn if entered else None,
        "wall_s": entered[1] if len(entered) > 1 else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": probe.spans,
        "missing": probe.missing,
        "dielscat": os.path.abspath(cli.__file__),
        "host": host(),
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
