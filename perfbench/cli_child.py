"""Run one ``repro`` command under the benchmark's probe (the traced cli-cold run).

Usage: ``python perfbench/cli_child.py OUT.json <repro argv...>``

Behaves like ``python -m repro <argv...>`` -- same stdout, same exit
code -- and additionally writes the probe's snapshot to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

from probe import Probe


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    probe = Probe()
    probe.install()
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        probe.uninstall()
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(probe.snapshot(), fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
