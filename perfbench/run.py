"""Benchmark of the entropy-classifier command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; the program is imported from src/.
It generates the workload's inputs from the seed (untimed, in a child
process), then runs the workload's CLI commands in-process through
entropy_classifier.cli.main, one command at a time: a closed loop with one
client. Every output is checked. Each metric is printed by name with its unit,
and the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 measures the end-to-end metrics with nothing patched. Timings are
scaled to a nominal machine speed, measured by a reference workload that runs
between passes (see NOMINAL_REF_S), so that drift of a shared host's speed
does not show as a change of the program.
--trace 1 alternates traced and untraced passes over the same commands and
reports per-layer self times and counts (see tracer.py), the tracing overhead
and the import time of a fresh interpreter.

Inputs live under .perfbench_runs/ in the checkout and are removed at the end;
a JSON record of each run (and the spans of traced runs) stays there.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
THREADS_VAR = "ENTROPY_CLASSIFIER_THREADS"

PIPELINE = ("train", "calibrate", "score", "evaluate")
EXPERIMENTS = ("exp1", "exp2")
MIN_REPS = 3      # repetitions of each command, however short --seconds is
FRESH_RUNS = 5    # fresh interpreters per setup measurement
SUBPROCESS_TIMEOUT = 120

# The host's speed drifts by tens of percent from minute to minute. A fixed
# reference workload runs between passes; timings are scaled by
# NOMINAL_REF_S / (its median time in the run), that is, to the machine speed
# at which the reference takes NOMINAL_REF_S. That is a round figure between
# its medians in the fast and slow states of the machine the seed commit was
# measured on (2 vCPUs shared with other tenants).
NOMINAL_REF_S = 0.05
REF_SAMPLES_PER_PASS = 2
_REF_WORD = re.compile(r"[^\W_]+")
# About 500 KB of text over a 20k-word vocabulary, as in the bulk corpora.
_REF_TEXT = " ".join(f"w{i * 7919 % 20011} Tax-{i % 31}" for i in range(40_000))

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from entropy_classifier.cli import main; sys.exit(main(sys.argv[2:]))")
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import entropy_classifier; print(time.perf_counter() - t)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_seconds() -> float:
    """Wall time of the reference workload: tokenizing the reference text and
    counting its words, the kind of work the program does."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for tok in _REF_WORD.findall(_REF_TEXT.lower()):
        counts[tok] = counts.get(tok, 0) + 1
    return time.perf_counter() - start


def tail_percentile(values: list[float], higher_is_better: bool):
    """The most extreme of p90/p99/p99.9 (p10/p1/p0.1 when higher is better)
    with at least 10 samples beyond it, or None when there are too few."""
    supported = [q for q in (90, 99, 99.9) if len(values) * (100 - q) / 100 >= 10]
    if not supported:
        return None
    q = supported[-1]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    k = round(q * 10) - 1
    return (f"p{100 - q:g}", cuts[998 - k]) if higher_is_better else (f"p{q:g}", cuts[k])


class Bench:
    """Runs CLI commands in-process and keeps the tally of checks."""

    def __init__(self, cli, manifest: dict):
        self.cli = cli
        self.manifest = manifest
        self.commands = workloads.commands(manifest)
        self.model = Path(manifest["model"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple] = {}

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems[:3]))

    def run(self, name: str, argv: list[str], tr: tracer.Tracer | None = None):
        """One command; returns (wall seconds, stdout). Exit code and byte
        identity with the command's first run are checked."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed command, not a benchmark crash
            code = "exception: " + traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        stdout = out.getvalue()
        self.check(f"{name} exit code", [] if code == 0 else [f"{code} {err.getvalue()[-300:]}"])
        if tr is not None:
            tr.counters["cli.output_bytes"] += len(stdout.encode("utf-8"))
        if name in PIPELINE + EXPERIMENTS:
            ident = (sha256(stdout.encode("utf-8")),
                     sha256(self.model.read_bytes()) if name in ("train", "calibrate") else None)
            if name in self.reference:
                changed = ["output or model file changed"] if ident != self.reference[name] else []
                self.check(f"{name} byte-identical", changed)
            else:
                self.reference[name] = ident
        return wall, stdout

    def run_pass(self, tr: tracer.Tracer | None = None) -> dict[str, tuple]:
        """Every command of the workload once, in order."""
        results = {}
        for name, argv, _ in self.commands:
            if tr is not None:
                tr.run_id += 1
            results[name] = self.run(name, argv, tr)
        return results

    def bias(self) -> float:
        for line in self.model.read_text(encoding="utf-8").splitlines():
            if line.startswith("bias "):
                return float(line[5:])
        raise ValueError(f"no bias record in {self.model}")

    def check_outputs(self, outputs: dict[str, tuple]) -> None:
        """Content checks on one full pass, right after it ran."""
        m = self.manifest
        bias = self.bias()
        _, neg_out = self.run("score negatives", ["score", "--model", str(self.model),
                                                  "--glossary", m["glossary"],
                                                  "--input", m["negatives"]["path"]])
        problems, negative_scores = checks.check_score(neg_out, m["negatives"]["ids"], bias, False)
        self.check("score records of the negatives", problems)
        self.check("calibrate", checks.check_calibrate(outputs["calibrate"][1], m["target_fpr"],
                                                       negative_scores))
        self.check("score", checks.check_score(outputs["score"][1], m["input"]["ids"], bias,
                                               m["explain"])[0])
        self.check("evaluate", checks.check_evaluate(outputs["evaluate"][1],
                                                     len(m["positives"]["ids"]),
                                                     len(m["negatives"]["ids"])))
        names = [c["name"] for c in m["exp"]["categories"]]
        rows2 = [f"{n}/{kind}" for n in names for kind in ("lr", "kb")]
        self.check("exp1", checks.check_experiment(outputs["exp1"][1], "exp1", names))
        self.check("exp2", checks.check_experiment(outputs["exp2"][1], "exp2", rows2))

    def fresh_interpreter(self, code: str, args: list[str]) -> tuple[float, str]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        wall = time.perf_counter() - start
        failed = [f"exit {proc.returncode}: {proc.stderr[-300:]}"] if proc.returncode else []
        self.check("fresh interpreter exit code", failed)
        return wall, proc.stdout

    def setup_seconds(self, refs: list[float]) -> list[float]:
        """Wall time of a fresh `score` of a one-document corpus; a reference
        sample is added to refs before each."""
        m = self.manifest
        argv = ["score", "--model", str(self.model), "--glossary", m["glossary"],
                "--input", m["one_doc"]["path"]]
        bias = self.bias()
        walls = []
        for _ in range(FRESH_RUNS):
            refs.append(reference_seconds())
            wall, out = self.fresh_interpreter(SETUP_CODE, argv)
            self.check("one-document score", checks.check_score(out, m["one_doc"]["ids"], bias,
                                                                False)[0])
            walls.append(wall)
        return walls


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with nothing patched: whole passes over the
    workload's commands until the time is up, at least MIN_REPS of them.
    Times are scaled to the nominal machine speed (see NOMINAL_REF_S); the
    unscaled samples are returned too."""
    samples: dict[str, list[float]] = defaultdict(list)
    refs: list[float] = []
    end = time.perf_counter() + seconds
    while len(samples["train"]) < MIN_REPS or time.perf_counter() < end:
        refs += [reference_seconds() for _ in range(REF_SAMPLES_PER_PASS)]
        for name, (wall, _) in bench.run_pass().items():
            samples[name].append(wall)
    samples["setup"] = bench.setup_seconds(refs)
    speed = NOMINAL_REF_S / statistics.median(refs)
    docs = {name: n for name, _, n in bench.commands}
    values = {"setup_s": [w * speed for w in samples["setup"]]}
    for name in PIPELINE:
        values[f"{name}_docs_per_s"] = [docs[name] / (w * speed) for w in samples[name]]
    for name in EXPERIMENTS:
        values[f"{name}_s"] = [w * speed for w in samples[name]]
    medians = {k: statistics.median(v) for k, v in values.items()}
    medians["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return medians, {"scaled": values, "wall": dict(samples), "reference": refs,
                     "speed": speed}


def layer_metrics(tr: tracer.Tracer, wall: float) -> dict:
    selfs = tracer.self_times(tr.spans)
    out = {f"{layer}.self_s": 0.0 for layer in tracer.LAYERS}
    for name, t in selfs.items():
        out[f"{name}.self_s"] = t
        out[f"{name.split('.')[0]}.self_s"] += t
    out.update(tr.counters)
    pairs = len(tr.pairs)
    out["glossary.match.redundancy"] = tr.counters["glossary.match.calls"] / pairs if pairs else 0.0
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - tracer.root_time(tr.spans)
    return out


def trace(bench: Bench, pkg, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: alternate traced and untraced passes until the time
    is up. Self times and counts come from the traced pass of median wall time;
    the overhead compares the median walls of both kinds."""
    traced, plain = [], []
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        tr = tracer.Tracer()
        tr.install(pkg)
        try:
            walls = bench.run_pass(tr)
        finally:
            tr.uninstall()
        traced.append((sum(w for w, _ in walls.values()), tr))
        plain.append(sum(w for w, _ in bench.run_pass().values()))
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as f:
        for n, (_, tr) in enumerate(traced):
            f.write(json.dumps({"pass": n, "fields": ["name", "start", "end", "parent", "run"],
                                "spans": tr.spans}) + "\n")
    wall, tr = sorted(traced, key=lambda p: p[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(tr, wall)
    traced_walls = [w for w, _ in traced]
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(plain)
                                      - 1.0)
    imports = [float(bench.fresh_interpreter(IMPORT_CODE, [])[1]) for _ in range(FRESH_RUNS)]
    metrics["setup.import_s"] = statistics.median(imports)
    info = {"traced_walls": traced_walls, "plain_walls": plain, "import_s": imports,
            "missing_patches": tr.missing, "counter_errors": dict(tr.count_errors)}
    return metrics, info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        THREADS_VAR: os.environ.get(THREADS_VAR, "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entropy_classifier" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'entropy_classifier'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(workdir)], check=True, timeout=SUBPROCESS_TIMEOUT)
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))

        sys.path.insert(0, str(SRC))
        import entropy_classifier
        import entropy_classifier.cli as cli
        if Path(entropy_classifier.__file__).resolve().parent != SRC / "entropy_classifier":
            print(f"error: imported {entropy_classifier.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2

        bench = Bench(cli, manifest)
        bench.check_outputs(bench.run_pass())
        if args.trace:
            values, info = trace(bench, entropy_classifier, args.seconds,
                                 RUNS / f"{tag}.spans.jsonl.gz")
        else:
            values, info = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A layer or counter that a pass never reached did no work.
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "digests": bench.reference, "attempted": bench.attempted, "failed": bench.failed,
              "problems": bench.problems, **info}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if "speed" in info:
        print(f"reference speed {info['speed']!r}: timings below are scaled by it "
              f"(median reference {statistics.median(info['reference'])!r} s, "
              f"nominal {NOMINAL_REF_S} s); unscaled samples are in the run record")
    scaled = info.get("scaled", {})
    for name, m in metrics.items():
        line = f"metric {name} {m['value']!r} {m['unit']}"
        if name in scaled:
            tail = tail_percentile(scaled[name], name.endswith("_per_s"))
            line += f" (median of {len(scaled[name])}" + (
                f", {tail[0]} {tail[1]!r})" if tail else ", too few samples for a tail percentile)")
        print(line)
    print(f"metric failed_frac {bench.failed / bench.attempted!r} fraction "
          f"({bench.failed} of {bench.attempted} commands and checks)")
    for name, (out_digest, model_digest) in bench.reference.items():
        model = f" model {model_digest}" if model_digest else ""
        print(f"sha256 {name} stdout {out_digest}{model}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
