#!/usr/bin/env python3
"""Check BenchmarkRun's deterministic rounds/op metric for engine drift.

Reads `go test -bench BenchmarkRun` output (a file argument or stdin) and
asserts that, for every workload size, the reference engine and the round
scheduler (standalone and pooled) report the identical rounds/op. The
metric is fully deterministic — seeds are fixed and all engines are
bit-identical by contract — so any disagreement means the scheduler's
simulation behavior drifted from the reference engine, not just its speed.

Exit status: 0 if all engines agree (and at least one workload was seen),
1 otherwise.
"""
import re
import sys

LINE = re.compile(
    r"^BenchmarkRun/(?P<engine>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
ROUNDS = re.compile(r"([\d.]+) rounds/op")


def main(argv):
    src = open(argv[1]) if len(argv) > 1 else sys.stdin
    seen = {}  # workload -> {engine: rounds/op}
    for line in src:
        m = LINE.match(line.strip())
        if not m:
            continue
        r = ROUNDS.search(m.group("metrics"))
        if not r:
            continue
        seen.setdefault(m.group("work"), {})[m.group("engine")] = float(r.group(1))

    if not seen:
        print("benchrounds: no BenchmarkRun results found in input", file=sys.stderr)
        return 1

    ok = True
    for work, engines in sorted(seen.items()):
        values = sorted(set(engines.values()))
        status = "ok" if len(values) == 1 else "DRIFT"
        if len(values) != 1:
            ok = False
        detail = ", ".join(f"{e}={v}" for e, v in sorted(engines.items()))
        print(f"{status:5}  {work}: {detail}")
        if "reference" not in engines or len(engines) < 2:
            print(f"WARN   {work}: fewer than two engines reported", file=sys.stderr)
    if not ok:
        print("benchrounds: engines disagree on rounds/op — scheduler behavior drifted",
              file=sys.stderr)
        return 1
    print(f"benchrounds: all engines agree on rounds/op across {len(seen)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
