"""Regenerate the fixed `.air` inputs of the `air-roundtrip` workload.

    python3 perfbench/make_air.py

Writes `air/<program>__<pipeline>.air`, the printed module of every
`compile-matrix` job that compiles.  The files are stored with the
benchmark so that `air-roundtrip` does not change when the compiler does;
rerun this only when the workload itself is meant to change.
"""

import os
import sys

import run  # puts this directory on sys.path
import checks
import workloads as wl
from tracing import Recorder


def main():
    sys.path.insert(0, run.SRC)
    P = run.import_polyhls()
    os.makedirs(wl.AIR_DIR, exist_ok=True)
    for job in wl.WORKLOADS["compile-matrix"]():
        c = checks.Compiled()
        try:
            checks.compile_pc(P, Recorder(False), job, wl.program_source(job.program), c)
        except P.errors.PolyHlsError as e:
            print("skip %s: %s" % (job.id, type(e).__name__))
            continue
        with open(wl.air_path(job.program, job.pipeline), "w") as f:
            f.write(c.air_text)
        print("wrote %s" % os.path.relpath(wl.air_path(job.program, job.pipeline)))


if __name__ == "__main__":
    main()
