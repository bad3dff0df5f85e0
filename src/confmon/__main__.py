"""Run the command-line interface: python -m confmon <command> [options]."""

from .cli import entry

if __name__ == "__main__":
    entry()
