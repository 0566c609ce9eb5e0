"""Child-process launcher for the benchmark.

The peak RSS that ``wait4`` reports for a child includes the high-water
mark of the process it was forked from, which the kernel carries over at
``exec``. The benchmark itself holds reference answers of hundreds of MB,
so it starts its children through this small process instead, and each
child's figure is then its own.

One JSON request per line on standard input (``argv``, ``env``, ``cwd``,
``stdout``, ``stderr``, ``timeout``); one JSON reply per line on standard
output (``code``, ``wall_s``, ``rss_kb``). A child still running after
``timeout`` seconds is killed. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    env=request["env"], cwd=request["cwd"])
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"code": code, "wall_s": wall, "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
