"""``python -m bosonbudget``: the command-line interface of ``bosonbudget.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
