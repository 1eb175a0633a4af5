"""``python -m confosc ...`` runs the command-line front end."""

from .cli_reports import main

raise SystemExit(main())
