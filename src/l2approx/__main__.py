"""`python -m l2approx`: the `l2approx` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
