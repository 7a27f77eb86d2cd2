"""Serving benchmark of the repro library: one workload, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-bulk --seed 1 \\
        --seconds 25 --trace 0

Builds its inputs from the seed, sets the workload up, measures it for
``--seconds``, checks every answer, and prints one JSON object as the
last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` measures half the time
untraced and half traced and reports the per-layer metrics, after a
markdown per-layer table.  The line before them, prefixed ``# run``,
records the run environment: resolved kernel and executor backend,
plane residency, cleared environment steers, a host-speed probe and
the hypervisor's steal time.

Exits non-zero without a result when the library sources are missing,
when the resolved kernel or backend differs from the one declared in
``BENCHMARK.json``, or (after printing ``"correct": false``) when an
answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostenv  # noqa: E402  (pins the environment before repro loads)


def _declared(spec: dict, workload: str) -> dict:
    """The ``kernel=`` and ``backend=`` the workload's ``why`` declares."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    return dict(re.findall(r"\b(kernel|backend)=(\w+)", why))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-bulk", "point-stream", "vpr-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"library sources not found under {src}", file=sys.stderr)
        return 2
    cleared = hostenv.pin_environment(ROOT)
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = _declared(spec, args.workload)

    # Resolve (and, on a fresh checkout, compile) the kernel provider
    # before any timed set-up, so no run's setup_s pays the compile.
    from repro.spatial.kernels import resolve_kernel

    kernel = resolve_kernel("auto")
    if declared.get("kernel", kernel) != kernel:
        print(f"invalid run: kernel resolves to {kernel} but BENCHMARK.json "
              f"declares kernel={declared['kernel']}", file=sys.stderr)
        return 3
    probe = hostenv.host_probe()
    steal0 = hostenv.steal_seconds()

    import checks
    import workloads

    from multiprocessing import resource_tracker

    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    except checks.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        # Shared-memory serving starts multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives us.
        resource_tracker._resource_tracker._stop()

    probe["steal_s"] = round(hostenv.steal_seconds() - steal0, 2)
    record = dict(result.info, cleared_env=cleared, host_probe=probe,
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    print("# run " + json.dumps(record, sort_keys=True))
    for key, want in declared.items():
        if record.get(key) != want:
            print(f"invalid run: resolved {key}={record.get(key)} but "
                  f"BENCHMARK.json declares {key}={want}", file=sys.stderr)
            return 3
    if result.table:
        print(result.table)

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(result.metrics.get(m["name"],
                                                             0.0)),
                           "unit": m["unit"]}
               for m in spec[group]}
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
