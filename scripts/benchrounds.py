#!/usr/bin/env python3
"""Check the deterministic rounds/op metric of the engine benchmarks for drift.

Reads `go test -bench BenchmarkRun` output (a file argument or stdin) and
asserts, for every workload size:

  * BenchmarkRun: the reference engine and the round scheduler
    (standalone and pooled) report the identical rounds/op;
  * BenchmarkRunLockstep: the standalone and the pooled lockstep engine
    (`lockstep`, `lockstep-pooled`) report the identical rounds/op. A
    pooled batch that inherits state from the batch before it shows here.

The metric is fully deterministic — seeds are fixed and all engine
variants are bit-identical by contract — so any disagreement means
simulation behavior drifted, not just speed.

Exit status: 0 if all engines agree and both benchmarks reported at least
one workload, 1 otherwise.
"""
import re
import sys

LINE = re.compile(
    r"^(?P<bench>BenchmarkRun(?:Lockstep)?)/(?P<engine>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
ROUNDS = re.compile(r"([\d.]+) rounds/op")

# The engine variants each benchmark must report per workload.
REQUIRED = {
    "BenchmarkRun": {"reference"},
    "BenchmarkRunLockstep": {"lockstep", "lockstep-pooled"},
}


def main(argv):
    src = open(argv[1]) if len(argv) > 1 else sys.stdin
    seen = {bench: {} for bench in REQUIRED}  # bench -> workload -> {engine: rounds/op}
    for line in src:
        m = LINE.match(line.strip())
        if not m:
            continue
        r = ROUNDS.search(m.group("metrics"))
        if not r:
            continue
        seen[m.group("bench")].setdefault(m.group("work"), {})[m.group("engine")] = float(r.group(1))

    ok = True
    for bench, works in seen.items():
        if not works:
            print(f"benchrounds: no {bench} results found in input", file=sys.stderr)
            ok = False
        for work, engines in sorted(works.items()):
            values = set(engines.values())
            status = "ok" if len(values) == 1 else "DRIFT"
            if len(values) != 1:
                ok = False
            detail = ", ".join(f"{e}={v}" for e, v in sorted(engines.items()))
            print(f"{status:5}  {bench} {work}: {detail}")
            missing = REQUIRED[bench] - engines.keys()
            if bench == "BenchmarkRunLockstep" and missing:
                print(f"benchrounds: {bench} {work}: no {', '.join(sorted(missing))} result",
                      file=sys.stderr)
                ok = False
            elif missing or len(engines) < 2:
                print(f"WARN   {bench} {work}: fewer than two engines reported", file=sys.stderr)
    if not ok:
        print("benchrounds: engines disagree on rounds/op or results are missing — "
              "simulation behavior drifted", file=sys.stderr)
        return 1
    total = sum(len(works) for works in seen.values())
    print(f"benchrounds: all engines agree on rounds/op across {total} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
