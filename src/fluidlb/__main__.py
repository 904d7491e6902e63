"""`python -m fluidlb`: the command line.

`cli.main` maps config problems to exit 2 and numerical failures to exit
3; any other exception is a fault inside the program, reported with its
traceback and exit code 4 (exit 1 stays the code of a failed validation).
"""

import sys

from .cli import main


def run(argv=None) -> int:
    try:
        return main(argv)
    except Exception:
        import traceback  # loaded only on a fault; no verb needs it

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(run())
