"""``python -m fuzzer``: see :mod:`fuzzer.driver`."""

import sys

from fuzzer.driver import main

if __name__ == "__main__":
    sys.exit(main())
