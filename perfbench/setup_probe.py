"""Time one shopclerk set-up: import, fixture and suite load, up to the first episode.

Usage: python3 perfbench/setup_probe.py <shopclerk bench arguments...>
Prints the elapsed seconds. The clock starts before shopclerk is imported and
stops when ``bench.run_trials`` is entered; no episode runs.
"""

import sys
import time

STARTED = time.perf_counter()


class _Ready(Exception):
    pass


def main(argv: list[str]) -> int:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from shopclerk import bench, cli

    def stop(*args, **kwargs):
        raise _Ready(time.perf_counter())

    bench.run_trials = stop
    try:
        code = cli.main(argv)
    except _Ready as ready:
        print(f"{ready.args[0] - STARTED:.9f}")
        return 0
    print(f"shopclerk bench exited with {code} before running an episode", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
