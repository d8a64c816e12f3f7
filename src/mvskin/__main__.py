"""``python -m mvskin``: the ``mvskin`` command line."""
from .cli import main

raise SystemExit(main())
