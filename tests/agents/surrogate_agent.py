"""Agent that proposes the cooperator, then a program holding a lone surrogate.

In meta-round 2 the program's comment carries U+D800 alone, sent as the JSON
escape \\ud800, which decodes to text that is not valid Unicode.
"""

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
            reply = {"type": "ready"}
        elif message["meta_round"] == 2:
            reply = {"type": "program", "source": "# \ud800\n" + ALLC}
        else:
            reply = {"type": "program", "source": ALLC}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
