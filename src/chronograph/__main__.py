"""python -m chronograph: the chronograph command line (chronograph.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
