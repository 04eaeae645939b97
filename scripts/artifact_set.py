#!/usr/bin/env python3
"""Write the byte-identity artifact set: every file a fixed list of CLI runs writes.

    PYTHONPATH=src python3 scripts/artifact_set.py OUT
    diff -r OUT_BEFORE OUT

The runs: the odd and even flagship (Omega = 2.2, N = 64, M = 16, seed
amplitude 0.8, 10 integrated periods, the multiplier table), an odd record at
lambda = 0.3, the 12-point sweep 2.6 -> 2.05 on N = 96 from seed (0.87, 1.05),
the 3-point sweep 2.2 -> 1.9 that ends inside the band, ``verify`` on eight
of those records, ``integrate`` of the odd flagship and ``bounds`` by each
frequency spelling.  Each runs in-process through ``cli_io.run_command`` and
writes under OUT/<run>/; its exit code, stdout and stderr go to OUT/<run>.log
with OUT written as the word ``OUT``, so two sets written to different
directories compare equal when the program behaves the same.
``scripts/solve_census.py`` is the other half of the comparison; it stays a
script of its own because it rebinds solver names.
"""

import contextlib
import io
import os
import sys

from breather_forge.cli_io import run_command

FLAGSHIP = ["--omega", "2.2", "--quartic", "1", "--n-sites", "64", "--harmonics", "16",
            "--seed-amplitude", "0.8", "--integrate-periods", "10", "--dump-nu"]
VERIFIED = ["solve_odd", "solve_even", "solve_lambda", "sweep/point_000", "sweep/point_006",
            "sweep/point_011", "sweep_edge/point_000", "sweep_edge/point_002"]


def runs(out):
    """(name, argv) of each run, in order: the later ones read the earlier records."""
    return [
        ("solve_odd", ["solve", *FLAGSHIP, "--parity", "odd",
                       "--out", os.path.join(out, "solve_odd")]),
        ("solve_even", ["solve", *FLAGSHIP, "--parity", "even",
                        "--out", os.path.join(out, "solve_even")]),
        ("solve_lambda", ["solve", "--omega", "2.2", "--quartic", "1", "--lambda", "0.3",
                          "--out", os.path.join(out, "solve_lambda")]),
        ("sweep", ["sweep", "--omega-from", "2.6", "--omega-to", "2.05", "--steps", "12",
                   "--n-sites", "96", "--harmonics", "16", "--quartic", "1",
                   "--seed-amplitude", "0.87", "--seed-width", "1.05",
                   "--out", os.path.join(out, "sweep")]),
        ("sweep_edge", ["sweep", "--omega-from", "2.2", "--omega-to", "1.9", "--steps", "3",
                        "--quartic", "1", "--out", os.path.join(out, "sweep_edge")]),
        *((f"verify_{record.replace('/', '_')}",
           ["verify", "--manifest", os.path.join(out, record, "manifest.json")])
          for record in VERIFIED),
        ("integrate", ["integrate", "--manifest", os.path.join(out, "solve_odd", "manifest.json"),
                       "--out", os.path.join(out, "integrate")]),
        ("bounds_omega", ["bounds", "--omega", "2.2", "--quartic", "1",
                          "--x0-norm", "0.8608563552731"]),
        ("bounds_omega2", ["bounds", "--omega2", "12", "--beta", "1", "--lambda", "0.3"]),
    ]


def main():
    if len(sys.argv) != 2:
        print("usage: artifact_set.py OUT", file=sys.stderr)
        return 1
    out = os.path.abspath(sys.argv[1])
    os.makedirs(out, exist_ok=True)
    for name, argv in runs(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_command(argv)
        log = f"exit code {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        with open(os.path.join(out, f"{name}.log"), "w") as handle:
            handle.write(log.replace(out, "OUT"))
        print(f"{name}: exit code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
