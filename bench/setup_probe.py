"""Fresh-process set-up for the benchmark's setup_s metric: import
beliefplan, validate a problem file the way `beliefplan --validate-only`
does, and load the tracking reference. run.py times this process."""

import sys

from beliefplan import cli
from workloads import load_reference

if __name__ == "__main__":
    code = cli.run(["--problem", sys.argv[1], "--validate-only"])
    load_reference()
    sys.exit(code)
