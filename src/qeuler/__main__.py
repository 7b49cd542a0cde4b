"""``python -m qeuler``: the command line, with cli.main's exit status."""

import sys

from .cli import main

sys.exit(main())
