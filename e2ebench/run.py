"""End-to-end benchmark of repro: fit, export and keep-alive serving.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from ``repro generate``
seeded by ``--seed``; every command runs in a fresh process with
``REPRO_WORKERS`` cleared.  ``--trace 0`` times the user-facing command
(no observability flags) for about ``--seconds`` and reports the
``end_to_end`` metrics of ``BENCHMARK.json``, with set-up and batch
times scaled by the machine's speed as ``calibrate.py`` measures it
between commands; ``--trace 1`` runs the
per-layer pipeline once (see ``layers.py``) and reports the
``per_layer`` metrics.  Human-readable lines come first; the last line
of stdout is the JSON result.  See README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Dict, List, Tuple

import common
from common import ROOT, WORK_DIR, median, repeat_for, run_repro

#: Corpora generated per run (``repro generate`` seeded from --seed);
#: setup_s is the median scaled generation time.  The batch workloads
#: cycle over all of them, serve-keepalive serves the first.
CORPORA = 3

#: Set-up and batch wall times are reported in seconds of a machine on
#: which one run of ``calibrate.py`` takes this long (about its median
#: on a shared 2-vCPU VM); see ``scale``.
CALIBRATION_REF_S = 0.40


@dataclass(frozen=True)
class Workload:
    kind: str
    size: Tuple[str, ...]
    children: str
    #: "fit", "export" or "serve": the user-facing command measured.
    command: str

    def generate_args(self, dataset: Path, seed: int) -> List[str]:
        return ["generate", self.kind, str(dataset), *self.size,
                "--seed", str(seed)]

    def fit_args(self, dataset: Path, seed: int) -> List[str]:
        return ["fit", str(dataset), "--children", self.children,
                "--weights", "learn", "--seed", str(seed)]

    def export_args(self, dataset: Path, seed: int,
                    output: Path) -> List[str]:
        return ["export-model", str(dataset), "--children", self.children,
                "--weights", "learn", "--format", "v2", "--output",
                str(output), "--seed", str(seed)]

    @property
    def expected_topics(self) -> int:
        widths = [int(part) for part in self.children.split(",")]
        return 1 + sum(prod(widths[:depth])
                       for depth in range(1, len(widths) + 1))


_DBLP = ("--max-authors", "1500")
_NEWS = ("--stories", "16", "--articles", "400")
_TINY_DBLP = ("--max-authors", "80")
_TINY_NEWS = ("--stories", "4", "--articles", "40")

WORKLOADS: Dict[str, Dict[str, Workload]] = {
    "full": {
        "dblp-fit": Workload("dblp", _DBLP, "6,3", "fit"),
        "news-export": Workload("news", _NEWS, "8,4", "export"),
        "serve-keepalive": Workload("dblp", _DBLP, "6,3", "serve"),
    },
    "tiny": {
        "dblp-fit": Workload("dblp", _TINY_DBLP, "3,2", "fit"),
        "news-export": Workload("news", _TINY_NEWS, "3,2", "export"),
        "serve-keepalive": Workload("dblp", _TINY_DBLP, "3,2", "serve"),
    },
}

_TOPIC_LINE = re.compile(rb"^\s*\[o[/\d]*\]", re.MULTILINE)


class Run:
    """Counts of one benchmark run and its report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []

    def count(self, ok: bool, what: str) -> None:
        """Count one operation; a failure is also reported as a line."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.lines.append(f"FAILED: {what}")

    def children(self, runs, what: str) -> None:
        for finished in runs:
            self.count(finished.returncode == 0,
                       f"{what} exited {finished.returncode}: "
                       f"{finished.stderr[-400:].decode(errors='replace')}")


def corpus_seeds(seed: int) -> List[int]:
    return [seed * CORPORA + index for index in range(CORPORA)]


def calibrate(scratch: Path) -> common.Finished:
    """One fresh-process run of the fixed kernel in ``calibrate.py``."""
    return common.run_python([str(common.BENCH_DIR / "calibrate.py")],
                             scratch)


def scale(walls: List[float], kernels: List[common.Finished]) -> List[float]:
    """Wall times in reference seconds.

    ``kernels`` holds a kernel run before the first timed command and
    one after each; every wall time is divided by the mean of the two
    around it and multiplied by ``CALIBRATION_REF_S``.
    """
    return [CALIBRATION_REF_S * wall / ((before.wall_s + after.wall_s) / 2)
            for wall, before, after in zip(walls, kernels, kernels[1:])]


def generate(workload: Workload, seed: int, scratch: Path,
             run: Run) -> Tuple[List[Path], float]:
    """Generate the run's corpora; returns them and the median scaled
    generation time."""
    datasets, runs, kernels = [], [], [calibrate(scratch)]
    for index, corpus_seed in enumerate(corpus_seeds(seed)):
        datasets.append(scratch / f"dataset{index}.json")
        runs.append(run_repro(
            workload.generate_args(datasets[-1], corpus_seed), scratch))
        kernels.append(calibrate(scratch))
    run.children(runs, "repro generate")
    run.children(kernels, "calibration kernel")
    walls = [finished.wall_s for finished in runs]
    run.lines.append(f"generate s: {' '.join(f'{w:.3f}' for w in walls)} "
                     f"unscaled")
    return datasets, median(scale(walls, kernels))


def fit_gate(finished, workload: Workload) -> Tuple[bool, str]:
    """``(ok, digest or reason)`` for one ``repro fit`` output."""
    topics = len(_TOPIC_LINE.findall(finished.stdout))
    if topics != workload.expected_topics:
        return False, (f"rendered {topics} topics, expected "
                       f"{workload.expected_topics}")
    return True, common.sha256(finished.stdout)


def measure_batch(workload: Workload, seed: int, seconds: float,
                  scratch: Path, datasets: List[Path],
                  run: Run) -> Dict[str, float]:
    """Run the workload's command back to back in fresh processes,
    cycling over the corpora, with a run of the calibration kernel
    before the first and after each; gate every output.

    Each corpus's outputs must be bit-identical across its runs.  Every
    wall time is scaled by the kernel runs around it (see ``scale``),
    which cancels the machine's speed at that moment.  ``wall_s`` is
    the mean over the corpora of each one's median scaled wall time,
    since corpora of one size still differ in cost by several percent.
    Peak RSS also depends on the corpus, so ``peak_rss_mb`` is the
    mean over the corpora of each one's median.
    """
    from gates import check_model

    artifact = scratch / "model.v2"
    order = itertools.cycle(range(len(datasets)))
    kernels = [calibrate(scratch)]

    def once():
        index = next(order)
        if workload.command == "fit":
            finished = run_repro(workload.fit_args(datasets[index], seed),
                                 scratch)
            gate = fit_gate(finished, workload)
        else:
            finished = run_repro(workload.export_args(
                datasets[index], seed, artifact), scratch)
            gate = check_model(artifact, workload.expected_topics)
            artifact.unlink(missing_ok=True)
        kernels.append(calibrate(scratch))
        return index, finished, gate

    jobs = repeat_for(seconds, once, minimum=len(datasets))
    command = {"fit": "repro fit", "export": "repro export-model"}[
        workload.command]
    run.children([finished for _, finished, _ in jobs], command)
    run.children(kernels, "calibration kernel")
    scaled_walls = scale([finished.wall_s for _, finished, _ in jobs],
                         kernels)
    rss, scaled = [], []
    for index, corpus_seed in enumerate(corpus_seeds(seed)):
        mine = [gate for i, _, gate in jobs if i == index]
        rss.append(median([finished.peak_rss_mb
                           for i, finished, _ in jobs if i == index]))
        scaled.append(median([wall for (i, _, _), wall
                              in zip(jobs, scaled_walls) if i == index]))
        for ok, detail in mine:
            run.count(ok, f"{command} on corpus {corpus_seed}: {detail}")
        digests = Counter(detail for ok, detail in mine if ok)
        run.count(len(digests) <= 1, f"{command} on corpus {corpus_seed} "
                  f"differs across runs: {dict(digests)}")
        if digests:
            run.lines.append(f"corpus {corpus_seed}: "
                             f"{digests.most_common(1)[0][0]} in "
                             f"{len(mine)} run(s)")
    run.lines.append("wall s: " + " ".join(
        f"{finished.wall_s:.3f}" for _, finished, _ in jobs) + " unscaled")
    run.lines.append("kernel s: " + " ".join(
        f"{kernel.wall_s:.3f}" for kernel in kernels))
    return {"wall_s": sum(scaled) / len(scaled),
            "peak_rss_mb": sum(rss) / len(rss)}


def export_serving_artifact(workload: Workload, seed: int, scratch: Path,
                            dataset: Path, run: Run) -> Tuple[Path, float]:
    """Export the artifact ``serve-keepalive`` serves; returns it and
    the scaled export time."""
    artifact = scratch / "serve.v2"
    kernels = [calibrate(scratch)]
    finished = run_repro(workload.export_args(dataset, seed, artifact),
                         scratch)
    kernels.append(calibrate(scratch))
    run.children([finished], "repro export-model")
    run.children(kernels, "calibration kernel")
    run.lines.append(f"export s: {finished.wall_s:.3f} unscaled")
    return artifact, scale([finished.wall_s], kernels)[0]


def measure_serve(seed: int, seconds: float, scratch: Path, dataset: Path,
                  artifact: Path, session, run: Run) -> Dict[str, float]:
    import traffic
    from repro.datasets import load_dataset
    from repro.serve import ModelQueryEngine, load_model

    model = load_model(str(artifact))
    engine = ModelQueryEngine(model)
    streams = session.streams(engine, load_dataset(str(dataset)).corpus,
                              seed)

    sessions = repeat_for(seconds, lambda: traffic.serve_session(
        artifact, scratch, streams, session.sample_every))
    tally = traffic.Tally()
    for served in sessions:
        traffic.check(served.outcomes, engine, tally)
    model.close()
    run.attempted += tally.attempted
    run.failed += tally.failures
    latency = traffic.latency_summary(tally)
    server_p50 = median([served.server_ms[0] for served in sessions])
    run.lines.append(
        f"{len(sessions)} session(s), ready "
        f"{median([served.ready_s for served in sessions]):.4f} s, "
        f"server p50 {server_p50:.3f} ms, query p50 "
        f"{latency['query_p50_ms']:.3f} ms p99 "
        f"{latency['query_p99_ms']:.3f} ms over "
        f"{latency['query_samples']} queries, reload p50 "
        f"{latency['reload_p50_ms']:.3f} ms, {tally.checked} answers "
        f"checked against the in-process engine")
    run.lines.append("per endpoint (sent/ok/failed): " + ", ".join(
        f"{endpoint} {tally.sent[endpoint]}/{tally.ok[endpoint]}/"
        f"{tally.failed[endpoint]}" for endpoint in traffic.ENDPOINTS))
    return {"wall_s": median([served.wall_s for served in sessions]),
            "peak_rss_mb": median([served.peak_rss_mb
                                   for served in sessions])}


def untraced(workload: Workload, seed: int, seconds: float, scratch: Path,
             session, run: Run) -> Dict[str, float]:
    datasets, setup_s = generate(workload, seed, scratch, run)
    if workload.command == "serve":
        artifact, export_s = export_serving_artifact(
            workload, seed, scratch, datasets[0], run)
        setup_s += export_s
        metrics = measure_serve(seed, seconds, scratch, datasets[0],
                                artifact, session, run)
    else:
        metrics = measure_batch(workload, seed, seconds, scratch, datasets,
                                run)
    metrics["setup_s"] = setup_s
    return metrics


def traced(workload: Workload, seed: int, scratch: Path, session,
           run: Run) -> Dict[str, float]:
    from layers import traced_run

    dataset = scratch / "dataset0.json"
    run.children([run_repro(workload.generate_args(
        dataset, corpus_seeds(seed)[0]), scratch)], "repro generate")
    metrics, attempted, failed, notes = traced_run(
        workload, seed, dataset, scratch, session)
    run.attempted += attempted
    run.failed += failed
    run.lines.extend(notes)
    return metrics


def result_line(spec: List[Dict[str, str]], metrics: Dict[str, float],
                run: Run) -> str:
    missing = [entry["name"] for entry in spec
               if entry["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(WORKLOADS),
                        default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    common.require_source()
    common.import_repro()
    import traffic

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.scale][args.workload]
    session = traffic.SESSIONS[args.scale]
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_DIR))
    run = Run()
    try:
        if args.trace:
            metrics = traced(workload, args.seed, scratch, session, run)
            line = result_line(spec["per_layer"], metrics, run)
        else:
            metrics = untraced(workload, args.seed, args.seconds, scratch,
                               session, run)
            line = result_line(spec["end_to_end"], metrics, run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for text in run.lines:
        print(f"{args.workload}: {text}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
