"""``python -m wickalg``: the command-line interface of :mod:`wickalg.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
