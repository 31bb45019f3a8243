"""Run the command line as `python -m fedprompt <command> [options]`."""

from fedprompt.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
