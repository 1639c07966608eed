"""Agent that explains itself on stderr and exits instead of answering hello."""

import sys


def main():
    sys.stdin.readline()
    for k in range(12):
        sys.stderr.write(f"warming up step {k}\n")
    sys.stderr.write("traceback: " + "y" * 5000 + "\n")
    sys.stderr.write("fatal: no model configured\n")
    sys.exit(3)


if __name__ == "__main__":
    main()
