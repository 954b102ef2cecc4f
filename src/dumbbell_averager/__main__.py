"""``python -m dumbbell_averager <command>``: the command line, also from a
source checkout with ``src`` on PYTHONPATH."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
