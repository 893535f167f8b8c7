"""Time one `sure-lab simulate` call in a fresh process.

Usage: python3 child.py WARMUP_CONFIG WARMUP_OUT -- SIMULATE_ARGS...

Imports and one tiny warm-up simulation run before the clock starts. Prints
one JSON line: the exit code, wall and CPU seconds of the call, and the peak
resident memory of this process.
"""

import json
import resource
import sys
import time


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv):
    warmup_config, warmup_out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: child.py WARMUP_CONFIG WARMUP_OUT -- SIMULATE_ARGS...")
    from sure_lab import cli

    if cli.main(["simulate", "--config", warmup_config, "--out", warmup_out]) != 0:
        raise SystemExit("warm-up simulation failed")
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(["simulate", *args])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "exit": code,
        "wall_s": wall,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
