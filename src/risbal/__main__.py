"""Command-line entry point: ``python -m risbal`` runs the sweep CLI."""

from .sim import cli_main

if __name__ == "__main__":
    raise SystemExit(cli_main())
