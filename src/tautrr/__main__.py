"""``python -m tautrr``: the same command line as the ``tautrr`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
