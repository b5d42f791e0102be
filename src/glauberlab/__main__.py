"""``python3 -m glauberlab``: the command-line interface."""

import sys

from .cli import main

sys.exit(main())
