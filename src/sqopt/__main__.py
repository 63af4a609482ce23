"""``python -m sqopt``: the same command line as the ``sqopt`` script."""

from .cli import entry

entry()
