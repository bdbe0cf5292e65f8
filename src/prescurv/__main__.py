"""`python -m prescurv`: the prescurv command line (prescurv.cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
