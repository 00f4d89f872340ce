"""``python -m fuzzphaser``: the same command line as the ``fuzzphaser`` script."""

import sys

from .cli import main

sys.exit(main())
