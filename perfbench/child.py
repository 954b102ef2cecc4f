"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'  (run.py writes the spec)

The spec names the package source directory, the generated config, the
``cli.main`` arguments, the output and result paths, the parent's spawn
time on CLOCK_MONOTONIC, the iteration id, and whether to trace.

Set-up runs from interpreter start through ``import dumbbell_averager``,
``load_config`` and ``parse_torque``/``extract_linearized`` of the
config's torques.  Then, unless the spec says ``setup_only``, the child
times one ``cli.main`` call.  It writes a JSON result and exits with the
CLI's exit code.
"""

import json
import os
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import dumbbell_averager as da
    import dumbbell_averager.cli  # noqa: F401  (not imported by the package)

    package_dir = os.path.join(spec["src"], "dumbbell_averager")
    if os.path.dirname(os.path.abspath(da.__file__)) != package_dir:
        print(f"imported {da.__file__}, expected the package under {package_dir}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["iteration"])
        tracing.install(tracer, da)

    def setup() -> None:
        config = da.cli.load_config(spec["config"])
        da.extract_linearized(da.parse_torque(config.f1star), da.parse_torque(config.f2star))

    if tracer is not None:
        setup = tracer.span("bench.setup", setup)
    setup()
    result = {"setup_s": _clock() - spec["t_spawn"]}

    rc = 0
    if not spec["setup_only"]:
        cli_main = da.cli.main if tracer is None else tracer.span("cli.main", da.cli.main)
        start = time.perf_counter()
        rc = cli_main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = sys.modules["numpy"].__version__

    if tracer is not None:
        result["layers"] = tracer.layer_metrics(report_bytes=_tree_bytes(spec["out"]))
        tracer.write(spec["trace"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
