"""The `aqgv` command with two spans, for the traced cli run.

Usage: python3 cli_child.py SPANS_FILE ARGS...

Runs ``aqgv ARGS...`` as the console script does, timing the import of
aqgv.cli and the call to aqgv.cli.run, and writes them to SPANS_FILE as
one JSON object.  The parent takes the rest of the command's wall time as
interpreter start-up and shut-down.
"""

import json
import sys
import time

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import aqgv.cli

    imported = time.perf_counter()
    code = aqgv.cli.run(argv).exit_code
    done = time.perf_counter()
    with open(spans_file, "w") as out:
        out.write(json.dumps({"import_s": imported - start, "run_s": done - imported}) )
    sys.exit(code)
