"""`python -m agentroute`: the command-line interface of `agentroute.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
