"""One serve_eval set-up, run in a fresh interpreter.

    python3 perfbench/serve_setup.py REQUEST.json RESULT.json

serve_eval starts this script once per set-up and waits for it to end, so
that the set-up's training leaves no mark on the peak RSS of the process that
measures serving. REQUEST.json holds the ServeConfig fields, the seed, the
work directory and the trace flag; RESULT.json receives what
workloads.serve_setup returns.
"""

import json
import sys
from pathlib import Path

import run


def main(argv) -> int:
    request_path, result_path = map(Path, argv)
    request = json.loads(request_path.read_text(encoding="ascii"))
    run.pin_threads()
    run.import_package()
    import workloads

    out = workloads.serve_setup(workloads.ServeConfig(**request["config"]), request["seed"],
                                Path(request["work_dir"]), request["trace"])
    result_path.write_text(json.dumps(out), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
