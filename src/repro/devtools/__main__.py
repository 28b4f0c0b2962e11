"""``python -m repro.devtools``: run repro-lint, like ``chiplet-npu lint``."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
