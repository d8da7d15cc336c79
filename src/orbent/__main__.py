"""``python -m orbent`` runs the command line of :mod:`orbent.cli`."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
