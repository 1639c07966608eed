"""Agent that proposes the cooperator once, then replies with 2 MiB and no newline."""

import json
import sys

ALLC = 'fn strategy() {\n    return "C"\n}\n'


def main():
    for line in sys.stdin:
        message = json.loads(line)
        kind = message.get("type")
        if kind == "shutdown":
            break
        if kind == "hello":
            sys.stdout.write(json.dumps({"type": "ready"}) + "\n")
        elif message["meta_round"] == 1:
            sys.stdout.write(json.dumps({"type": "program", "source": ALLC}) + "\n")
        else:
            sys.stdout.write("x" * (2 << 20))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
