"""Agent that appends each request line, exactly as read, to a file.

    recording_agent.py LOG ACTION

Each meta-round it proposes a program that always plays ACTION, headed by a
comment with the round number and non-ASCII text, so every round's source
differs.  In meta-round 3 it proposes a program that does not parse.
"""

import json
import sys


def main():
    log_path, action = sys.argv[1], sys.argv[2]
    with open(log_path, "a", encoding="utf-8", newline="") as log:
        for line in sys.stdin:
            log.write(line)
            log.flush()
            message = json.loads(line)
            kind = message.get("type")
            if kind == "hello":
                reply = {"type": "ready"}
            elif kind == "propose":
                k = message["meta_round"]
                source = f'# round {k}: naïve café ☕\nfn strategy() {{\n    return "{action}"\n}}\n'
                reply = {"type": "program", "source": "fn nope(" if k == 3 else source}
            elif kind == "shutdown":
                break
            else:
                reply = {"type": "error", "detail": f"unknown message {kind!r}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
