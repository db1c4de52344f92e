"""The repository's benchmark: four product workloads, timed cold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each repetition is a fresh interpreter
(``worker.py``), with the on-disk result cache and the in-memory summary
LRU off, so imports and the process-global table cache start cold.  One
run:

1. imports the stack once, untimed, so byte-code is compiled;
2. loads (or computes, untimed) the oracle for this source tree,
   workload and seed: the same configuration on the per-page reference
   path, ``run_experiment(..., fast_path=False)``;
3. repeats the workload for ``--seconds`` (at least twice) and reports
   medians.  With ``--trace 1`` it alternates untraced and traced
   repetitions and reports the per-layer metrics plus the tracing
   overhead instead of the end-to-end metrics.

Every repetition's outputs are checked; a failed check is counted as a
failed operation, not raised.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload briefly, traced and untraced, and fails
unless each one emits every metric named in ``catalog.py`` and in the
repository's ``BENCHMARK.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402

#: repetitions per run, whatever ``--seconds`` says (the determinism
#: check needs two)
MIN_REPS = 2
#: set-up samples the tournament tops up with import-only probes
MIN_SETUP_SAMPLES = 5
#: no repetition starts after this many seconds of a run
RUN_DEADLINE_S = 140.0
#: one repetition's hard limit
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def repo_root():
    """The checkout this benchmark directory sits in."""
    return os.path.dirname(HERE)


def worker_env():
    env = dict(os.environ)
    env["CHRONO_NO_CACHE"] = "1"
    # Nothing is cached, but keep any cache directory inside the checkout.
    env["CHRONO_CACHE_DIR"] = os.path.join(HERE, ".cache", "chrono")
    # Byte-code caching on, as for a user: the untimed warm-up import
    # compiles, and every timed import reads the compiled files.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload, seed, mode, smoke=False, spans=None):
    """Run one ``worker.py`` repetition and return its JSON result."""
    root = repo_root()
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        command.append("--smoke")
    if spans:
        command += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.run(
        command + ["--t0", repr(t0)],
        cwd=root,
        env=worker_env(),
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} repetition exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Oracle and determinism records, keyed on the source tree
# ----------------------------------------------------------------------
def source_digest(root):
    """SHA-256 over every file under ``src/`` (byte-code excluded)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def record_key(root, workload, config, seed):
    import numpy

    material = json.dumps(
        {
            "src": source_digest(root),
            "workload": workload,
            "config": config,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:32]


def cached_record(kind, key, compute):
    """Load ``.cache/<kind>-<key>.json``, or compute and store it."""
    path = os.path.join(HERE, ".cache", f"{kind}-{key}.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    value = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)
    return value


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def oracle_error(rep, oracle):
    """Absolute FMAR error and relative throughput error against the
    oracle, each averaged over the oracle's points."""
    fmar, throughput = [], []
    for name, point in oracle.items():
        sim = rep["fidelity"][name]
        fmar.append(abs(sim["fmar"] - point["fmar"]))
        throughput.append(
            abs(sim["throughput"] - point["throughput"])
            / point["throughput"]
        )
    return statistics.fmean(fmar), statistics.fmean(throughput)


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns the result object ``main`` prints."""
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(f"no simulator source under {root}/src/repro")
    config = config_for(workload, smoke=smoke)
    started = time.monotonic()
    spawn(workload, seed, "import", smoke)  # compiles byte-code; untimed

    key = record_key(root, workload, config, seed)
    oracle = cached_record(
        "oracle", key, lambda: spawn(workload, seed, "oracle", smoke)
    )
    attempted = len(oracle)
    failed = []
    for name, point in oracle.items():
        problems = list(point["failed"])
        if not point["throughput"] > 0:
            problems.append(f"throughput {point['throughput']!r}")
        if problems:
            failed.append(f"oracle {name}: {'; '.join(problems)}")

    spans_dir = os.path.join(HERE, "out")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    modes = ("timed", "traced") if trace else ("timed",)
    reps = {mode: [] for mode in modes}
    deadline = time.monotonic() + seconds
    while True:
        now = time.monotonic()
        enough = all(len(r) >= MIN_REPS for r in reps.values())
        if enough and (now >= deadline or now - started > RUN_DEADLINE_S):
            break
        for mode in modes:
            spans = None
            if mode == "traced":
                spans = os.path.join(
                    spans_dir,
                    f"spans-{workload}-seed{seed}-"
                    f"rep{len(reps[mode])}.json",
                )
            reps[mode].append(spawn(workload, seed, mode, smoke, spans))

    # Output checks: each repetition's own, then determinism against the
    # first repetition this source tree ever made at this seed.
    reference = cached_record("sim", key, lambda: reps["timed"][0]["sim"])
    for mode, runs in reps.items():
        for index, rep in enumerate(runs):
            attempted += rep["ops"]
            failed += [f"{mode} rep {index}: {f}" for f in rep["failed_ops"]]
            if rep["sim"] != reference:
                changed = sorted(
                    k for k in reference if rep["sim"].get(k) != reference[k]
                )
                failed.append(
                    f"{mode} rep {index}: not deterministic "
                    f"({', '.join(changed)})"
                )
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    for mode, runs in reps.items():
        print(
            f"{workload} seed={seed} {mode} run_s: "
            + " ".join(f"{rep['run_s']:.3f}" for rep in runs),
            file=sys.stderr,
        )

    fmar_err, throughput_err = oracle_error(reps["timed"][0], oracle)
    timed = reps["timed"]
    if not trace:
        setup = [rep["setup_s"] for rep in timed]
        if config["kind"] == "tournament":
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(spawn(workload, seed, "import", smoke)["import_s"])
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(rep["run_s"] for rep in timed),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in timed),
            "fmar_fidelity": 1.0 - fmar_err,
            "throughput_fidelity": 1.0 - throughput_err,
        }
    else:
        traced = reps["traced"]
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        for name in values.keys() & traced[0]["layers"].keys():
            values[name] = statistics.median(rep["layers"][name] for rep in traced)
        values.update(
            (name, value)
            for name, value in timed[0]["sim"].items()
            if name in values
        )
        values.update({
            "oracle.fmar": statistics.fmean(
                p["fmar"] for p in oracle.values()
            ),
            "oracle.throughput": statistics.fmean(
                p["throughput"] for p in oracle.values()
            ),
            "oracle.fmar_err": fmar_err,
            "oracle.throughput_err": throughput_err,
            "trace.overhead": (
                statistics.median(rep["run_s"] for rep in traced)
                / statistics.median(rep["run_s"] for rep in timed)
                - 1.0
            ),
        })
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": float(value), "unit": UNITS[name]}
            for name, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# Smoke mode
# ----------------------------------------------------------------------
def smoke():
    """Every workload, briefly, traced and untraced: every metric named
    in ``catalog.py`` and ``BENCHMARK.json`` must be emitted."""
    expected = {
        0: {name for name, _, _ in END_TO_END},
        1: {name for name, _, _ in PER_LAYER},
    }
    spec_path = os.path.join(repo_root(), "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as handle:
            spec = json.load(handle)
        expected[0] |= {m["name"] for m in spec["end_to_end"]}
        expected[1] |= {m["name"] for m in spec["per_layer"]}
        missing = set(WORKLOADS) ^ {w["name"] for w in spec["workloads"]}
        if missing:
            print(f"workload lists differ: {sorted(missing)}")
            return 1
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, 0, 1, trace, smoke=True)
            emitted = set(result["metrics"])
            missing = sorted(expected[trace] - emitted)
            extra = sorted(emitted - expected[trace])
            bad = sorted(
                name for name, m in result["metrics"].items()
                if not math.isfinite(m["value"])
            )
            ok = not (missing or extra or bad)
            status |= not ok
            print(
                f"{workload:<16} trace={trace} "
                f"{len(emitted):3d} metrics "
                f"attempted={result['attempted']} "
                f"failed={result['failed']} "
                f"{'ok' if ok else 'FAIL'}"
                + (f" missing={missing}" if missing else "")
                + (f" extra={extra}" if extra else "")
                + (f" non-finite={bad}" if bad else "")
            )
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload briefly and check every metric is emitted",
    )
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
