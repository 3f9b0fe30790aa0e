"""Run one qduality command line the way the installed ``qduality`` script does.

    python3 perfbench/launch.py simulate --theta1 0 --theta2 pi/8 --phi 3pi/2

With PERFBENCH_TRACE set to a path, the layers are traced (see spans.py):
the span totals are written to that path as JSON and the spans next to it
as CSV.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    import qduality.cli as cli

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli.main(sys.argv[1:])
    import json

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.enabled = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
        tracer.write_spans(trace_path[:-len(".json")] + ".spans.csv")


if __name__ == "__main__":
    sys.exit(main())
