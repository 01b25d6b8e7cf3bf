"""``python -m varsolve``: the same command line as the ``varsolve`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
