"""One traced cold CLI op.

    python -X importtime perfbench/cli_child.py <op-id> <wedgeq cli argv...>

Installs the tracer (whose imports of wedgeq are what -X importtime
times), runs wedgeq.cli.main on the argv with stdout untouched, then
writes one "SPANS {...}" line to stderr after the import-time lines.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    op_id = int(sys.argv[1])
    tracer = Tracer().install()
    from wedgeq import cli

    with tracer.op(op_id):
        code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    record = {"spans": tracer.spans, "counters": dict(tracer.counters), "missing": tracer.missing}
    sys.stderr.write("SPANS " + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
