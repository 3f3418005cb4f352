"""Command-line entry point: ``python -m qcbracket COMMAND ...``."""

from .cli import main

if __name__ == "__main__":
    main()
