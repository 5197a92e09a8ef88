"""`python -m calrisk`: the command-line interface of `calrisk.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
