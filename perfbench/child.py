"""One benchmark repetition in a fresh process.

Usage: python3 child.py '<json spec>'.  The spec names the checkout root,
the CLI argv (or null to only import), whether to trace, and where to write
spans.  Prints one JSON record as the last line of standard output:
setup_s (the time to import impulsesim.cli), the library versions, and,
when argv is given, wall_s and cpu_s of the call into cli.main, peak_rss_mb
of this process and the CLI's exit code.  Exits non-zero when the import or the call fails.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = (Path(spec["root"]) / "src").resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import impulsesim.cli as cli
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"impulsesim imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    record = {"setup_s": setup_s,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    code = 0
    if spec.get("argv") is not None:
        entry, tracer = cli.main, None
        if spec.get("trace"):
            from spans import Tracer
            tracer = Tracer()
            entry = tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        code = entry(spec["argv"])
        wall_s = time.perf_counter() - w0
        after = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            wall_s=wall_s,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            exit_code=code,
        )
        if tracer is not None:
            record["layers"] = tracer.layer_totals()
            tracer.write(spec["spans"])
    print(json.dumps(record))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
