"""``python -m perimax``: the same command line as the ``perimax`` script."""

import sys

from .cli import main

sys.exit(main())
