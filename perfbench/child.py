"""One benchmark sample, run in a fresh process by ``run.py``.

    python3 child.py WORKLOAD INPUT OUTDIR RESULT SRC TRACE

Sets up (imports tcsim from SRC and parses the config, or lists the
leak-stats datasets), runs the workload once through ``tcsim.cli.main``,
and writes timings to RESULT as JSON: wall seconds, and seconds scaled to
the reference host speed by ``speed.SpeedProbe``. INPUT and OUTDIR are
relative to the working directory, so the paths tcsim records in its
outputs do not depend on where the checkout is. With TRACE=1 the run is traced and the per-layer
metrics and spans go into RESULT as well.

Exit status: 0 after a run that returned 0, 1 after a failed run, and
SETUP_FAILED when tcsim cannot be imported from SRC.
"""

import json
import resource
import sys
import time
from pathlib import Path

import speed
from speed import SpeedProbe

SETUP_FAILED = 3


def run_workload(workload: str, inp: Path, out: Path, tracer=None,
                 setup_probe: SpeedProbe | None = None) -> dict:
    """Set up and run one workload in this process. Returns the timings
    (and per-layer metrics when traced); raises if tcsim fails.
    ``setup_probe``, when given, has been probing since process start."""
    from tcsim import cli, config

    t0 = time.perf_counter()
    if workload == "leak-stats":
        jobs = [["analyze", csv.as_posix(), "-o", (out / f"{csv.stem}.json").as_posix()]
                for csv in sorted(inp.glob("*.csv"))]
        if not jobs:
            raise FileNotFoundError(f"no datasets in {inp}")
    else:
        config.load_config(inp)
        jobs = [["run", inp.as_posix(), "-o", out.as_posix()]]
    parse_s = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    setup_probe = setup_probe.stop() if setup_probe else (0.0, 1.0)
    ready = time.monotonic()

    def run():
        for argv in jobs:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"tcsim {' '.join(argv)} exited {rc}")

    probe = SpeedProbe()
    probe.start()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            run()
            wall_s = time.perf_counter() - t0
        else:
            tracer.install()
            try:
                wall_s = tracer.run(run)
            finally:
                tracer.uninstall()
    finally:
        run_probe = probe.stop()
    result = {"ready": ready, "setup_probe": setup_probe, "parse_s": parse_s,
              "wall_s": wall_s, "run_s": speed.scaled(wall_s, run_probe),
              "speed_scale": run_probe[1]}
    if tracer is not None:
        result["layers"] = {**tracer.metrics(wall_s, run_probe[1]),
                            "config.parse_s": parse_s * setup_probe[1],
                            "trace.run_s": result["run_s"]}
        result["sites"] = {site: c[0] for site, c in tracer.site_calls.items()}
        result["spans"] = tracer.spans
    return result


def main(argv: list[str]) -> int:
    workload, inp, out, result_path, src, trace = argv
    setup_probe = SpeedProbe()
    setup_probe.start()
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    try:
        import tcsim
    except ImportError as exc:
        print(f"cannot import tcsim from {src}: {exc}", file=sys.stderr)
        return SETUP_FAILED
    if src not in Path(tcsim.__file__).resolve().parents:
        print(f"tcsim was imported from {tcsim.__file__}, not {src}", file=sys.stderr)
        return SETUP_FAILED
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
    result = run_workload(workload, Path(inp), Path(out), tracer, setup_probe)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
