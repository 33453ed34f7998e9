"""Entry point of ``python -m cfmimo``: the command-line interface."""
from .cli import main

raise SystemExit(main())
