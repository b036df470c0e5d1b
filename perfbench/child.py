"""One fresh-process run of the ustatmc CLI, timed from inside the process.

    python3 perfbench/child.py RESULT.json [--trace RUN_ID SPANS.json] -- CLI ARGS...

Times the import of ``ustatmc`` and ``ustatmc.cli`` (set-up), then
``ustatmc.cli.main(args)`` (wall and CPU), and writes them with the exit
status and the peak resident set size (VmHWM) to RESULT.json.  With ``--trace`` the
layer functions are wrapped first; spans go to SPANS.json after the command
has returned, and the per-layer metrics into RESULT.json.

Only modules the interpreter has loaded at start-up are imported before the
set-up timer starts, so the import cost is the package's own.
"""

import os
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.  ``ru_maxrss``
    is not used: on Linux it keeps the forking parent's peak across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    (result_path, *flags), cli_args = argv[:split], argv[split + 1 :]
    trace = "--trace" in flags
    if trace:
        run_id, spans_path = flags[flags.index("--trace") + 1 :][:2]

    start = time.perf_counter()
    import ustatmc
    import ustatmc.cli

    setup_s = time.perf_counter() - start

    import json

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(ustatmc.__file__).startswith(src + os.sep):
        print(f"ustatmc imported from {ustatmc.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if trace:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer(run_id)
        install(tracer)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = ustatmc.cli.main(cli_args)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["exit_code"] = code
    if trace:
        tracer.write(spans_path)
        metrics, self_s = layer_metrics(tracer.spans, tracer.counts)
        result["layers"] = metrics
        result["self_s"] = self_s
    result["peak_rss_mb"] = peak_rss_kb() / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
