"""``python -m mdelta``: the command-line interface of :mod:`mdelta.cli`."""

import sys

from mdelta.cli import main

if __name__ == "__main__":
    sys.exit(main())
