"""``python -m planeval``: the command-line interface."""

from .cli import main

main()
