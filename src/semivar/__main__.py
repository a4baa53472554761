"""``python -m semivar``: the ``semivar`` command line."""

from .cli import main

raise SystemExit(main())
