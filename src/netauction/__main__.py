"""`python -m netauction …`: the `netauction` command."""

import sys

from .cli import main

sys.exit(main())
