"""``python -m apvsim``: the same command line as the ``apvsim`` script."""

from apvsim.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
