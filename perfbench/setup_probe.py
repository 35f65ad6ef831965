"""Set-up time of one fresh process: prints the seconds that
`import graphfield` and the workload's once-per-process work take.

    python3 perfbench/setup_probe.py DIR/inputs.json
"""

import json
import sys

import env
import workloads


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    env.pin()
    with open(argv[0]) as f:
        desc = json.load(f)
    print(repr(workloads.timed_setup(desc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
