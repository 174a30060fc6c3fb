"""Record the golden outcomes the benchmark checks at its default seed.

Usage (from the root of a checkout)::

    python3 perfbench/record_goldens.py

Re-record only when a change is meant to alter per-packet outcomes; a
pure speed-up must leave ``goldens.json`` untouched.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

#: operations recorded per workload, comfortably more than one run reaches
CHAOS_SCHEDULES = 12
FORWARD_RUNS = 100


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    wl.WORK.mkdir(exist_ok=True)
    seed = wl.DEFAULT_SEED
    goldens: dict = {"seed": seed, "chaos": {}, "cli-cold": {}}
    for policy in wl.CHAOS["policies"]:
        goldens["chaos"][policy] = [
            wl.chaos_outcome(*wl.run_chaos_schedule(seed, index, policy))[0]
            for index in range(CHAOS_SCHEDULES)
        ]
    goldens["chaos-traced"] = [
        wl.chaos_outcome(*wl.run_chaos_schedule(seed, index, "static", wl.CHAOS_TRACED_DURATION_S))[0]
        for index in range(CHAOS_SCHEDULES)
    ]
    goldens["forward-64"] = [
        wl.forward_outcome(wl.run_forward(seed, index))[0] for index in range(FORWARD_RUNS)
    ]
    for command in wl.CLI_COMMANDS:
        outcome = wl.cli_outcome(command, wl.run_cli(command))
        if outcome["exit"] != 0:
            raise SystemExit(f"{command} exited {outcome['exit']}")
        goldens["cli-cold"][command] = outcome
    for table in [*goldens["chaos"].values(), goldens["chaos-traced"], goldens["forward-64"]]:
        for outcome in table:
            if outcome["delivered"] + sum(outcome["drops"].values()) != outcome["offered"]:
                raise SystemExit(f"conservation fails in a recorded outcome: {outcome}")
    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
