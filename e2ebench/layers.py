"""The traced run: every layer's public function called in-process on
the workload's inputs and seed, each call timed from here.

The program gets no extra tracing; the only observability switched on
is the existing ``repro.obs`` metrics registry, whose convergence traces
give ``cathy.em_iterations``.  The run is the whole pipeline for every
workload (its own corpus and tree), so each workload reports every
layer; ``unattributed_s`` subtracts only the layers the workload's own
command runs.

The lazy role tables are built as their own layer
(``roles.entity_tables_s``) *before* ``serve.artifact.save_s`` is
timed, so the time the first ``save_model`` would otherwise hide is
attributed to ``roles``.  ``LAYER_ORDER`` records that order.

Import after :func:`common.import_repro`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro import obs
from repro.cathy import BuilderConfig, HierarchyBuilder
from repro.core import LatentEntityMiner, MinerConfig, MiningResult
from repro.datasets import load_dataset
from repro.network import build_collapsed_network
from repro.parallel import pool_scope
from repro.phrases import attach_entity_rankings, attach_phrases
from repro.roles import RoleAnalyzer
from repro.serve import ModelQueryEngine, load_model

import traffic
from common import median, run_python, run_repro, sha256
from gates import check_model

#: Timed layers in the order the traced run executes them.
LAYER_ORDER = (
    "import.repro_s", "datasets.load_s", "network.collapse_s",
    "cathy.build_s", "phrases.decorate_s", "phrases.entity_rank_s",
    "roles.init_s", "hierarchy.render_s", "roles.entity_tables_s",
    "serve.artifact.save_s", "serve.artifact.load_ms",
    "serve.engine.build_ms")

#: The layers each workload's own command runs, for ``unattributed_s``.
_FIT_LAYERS = ("import.repro_s", "datasets.load_s", "network.collapse_s",
               "cathy.build_s", "phrases.decorate_s",
               "phrases.entity_rank_s", "roles.init_s")
COMMAND_LAYERS = {
    "fit": _FIT_LAYERS + ("hierarchy.render_s",),
    "export": _FIT_LAYERS + ("roles.entity_tables_s",
                             "serve.artifact.save_s"),
    "serve": ("import.repro_s", "serve.artifact.load_ms",
              "serve.engine.build_ms"),
}

#: Fresh-process runs of the workload's command; unattributed_s uses
#: their median wall time.
COMMAND_REPEATS = 3

_IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                 "import repro.cli; print(time.perf_counter() - start)")


class _Clock:
    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def layer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - start


def _median_ms(job, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        job()
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def traced_run(workload, seed: int, dataset: Path, scratch: Path,
               session) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Run the per-layer pipeline; returns ``(metrics, attempted,
    failed, report lines)``."""
    attempted = failed = 0
    notes: List[str] = []
    clock = _Clock()
    obs.configure(metrics=True)

    probes = [run_python(["-c", _IMPORT_PROBE], scratch)
              for _ in range(3)]
    attempted += len(probes)
    failed += sum(probe.returncode != 0 for probe in probes)
    clock.seconds["import.repro_s"] = median(
        [float(probe.stdout) if probe.returncode == 0 else 0.0
         for probe in probes])

    children = [int(part) for part in workload.children.split(",")]
    config = MinerConfig(num_children=children, max_depth=len(children),
                         weight_mode="learn")
    miner = LatentEntityMiner(config, seed=seed)
    with clock.layer("datasets.load_s"):
        corpus = load_dataset(str(dataset)).corpus
    with pool_scope():
        with clock.layer("network.collapse_s"):
            network = build_collapsed_network(
                corpus, entity_types=config.entity_types,
                min_count=config.min_count)
        builder = HierarchyBuilder(BuilderConfig(
            num_children=config.num_children, max_depth=config.max_depth,
            weight_mode=config.weight_mode, workers=config.workers),
            seed=seed)
        with clock.layer("cathy.build_s"):
            hierarchy = builder.build(network)
        with clock.layer("phrases.decorate_s"):
            counts = attach_phrases(
                hierarchy, corpus, min_support=config.min_support,
                max_phrase_length=config.max_phrase_length,
                top_k=config.top_k)
        with clock.layer("phrases.entity_rank_s"):
            attach_entity_rankings(hierarchy, top_k=config.top_k)
        with clock.layer("roles.init_s"):
            roles = RoleAnalyzer(hierarchy, corpus, counts=counts,
                                 min_support=config.min_support,
                                 max_phrase_length=config.max_phrase_length)
    result = MiningResult(corpus=corpus, network=network,
                          hierarchy=hierarchy, counts=counts, roles=roles)
    entity_types = corpus.entity_types()
    with clock.layer("hierarchy.render_s"):
        rendered = result.render(max_phrases=4, entity_types=entity_types,
                                 max_entities=3)
    with clock.layer("roles.entity_tables_s"):
        for entity_type in entity_types:
            roles.entity_topic_frequencies(entity_type)
    artifact = scratch / "traced.v2"
    with clock.layer("serve.artifact.save_s"):
        miner.save_model(result, str(artifact), format="v2")

    def load_close():
        load_model(str(artifact)).close()

    model = load_model(str(artifact))
    load_ms = _median_ms(load_close)
    build_ms = _median_ms(lambda: ModelQueryEngine(model))

    metrics: Dict[str, float] = dict(clock.seconds)
    metrics.update({
        "network.links": network.num_links(),
        "cathy.topics": hierarchy.num_topics,
        "cathy.em_iterations": sum(
            trace.num_iterations for trace in obs.get_traces()
            if trace.name.startswith("cathy.")),
        "serve.artifact.bytes": artifact.stat().st_size,
        "serve.artifact.load_ms": load_ms,
        "serve.engine.build_ms": build_ms,
    })

    # The workload's own command in fresh processes (median wall, for
    # unattributed_s); its output must match the traced pipeline's.
    if workload.command == "fit":
        expected = sha256((rendered + "\n").encode("utf-8"))
        runs = [run_repro(workload.fit_args(dataset, seed), scratch)
                for _ in range(COMMAND_REPEATS)]
        agree = [run.returncode == 0 and sha256(run.stdout) == expected
                 for run in runs]
    elif workload.command == "export":
        exported = scratch / "cli.v2"
        ok, traced_digest = check_model(artifact, hierarchy.num_topics)
        runs, agree = [], []
        for _ in range(COMMAND_REPEATS):
            runs.append(run_repro(
                workload.export_args(dataset, seed, exported), scratch))
            agree.append(ok and runs[-1].returncode == 0 and check_model(
                exported, hierarchy.num_topics) == (True, traced_digest))
    else:
        runs, agree = [], []
    attempted += len(agree)
    failed += agree.count(False)
    if not all(agree):
        notes.append(f"FAILED: `repro {workload.command}` output differs "
                     f"from the traced pipeline's")

    engine = ModelQueryEngine(model)
    streams = session.streams(engine, corpus, seed)
    metrics["serve.engine.query_p50_us"], \
        metrics["serve.engine.cache_hit_ratio"] = traffic.replay(
            streams, artifact)

    served = traffic.serve_session(artifact, scratch, streams,
                                   session.sample_every)
    tally = traffic.Tally()
    traffic.check(served.outcomes, engine, tally)
    model.close()
    attempted += tally.attempted
    failed += tally.failures
    latency = traffic.latency_summary(tally)
    server_p50, server_p99 = served.server_ms
    metrics.update(latency)
    metrics.update(tally.metrics())
    metrics.update({
        "serve_ready_s": served.ready_s,
        "query_rps": len(tally.query_latency_s) / served.load_s,
        "serve.http.server_p50_ms": server_p50,
        "serve.http.server_p99_ms": server_p99,
        "serve.http.client_gap_ms": latency["query_p50_ms"] - server_p50,
    })
    command_wall = (median([run.wall_s for run in runs]) if runs
                    else served.ready_s)

    attributed = sum(metrics[name] / (1e3 if name.endswith("_ms") else 1)
                     for name in COMMAND_LAYERS[workload.command])
    metrics["unattributed_s"] = command_wall - attributed
    metrics["error_rate"] = failed / attempted
    notes.append("layer order: " + " -> ".join(LAYER_ORDER))
    notes.append(f"{workload.command} command wall {command_wall:.4f} s, "
                 f"attributed to its layers {attributed:.4f} s")
    notes.append("traced layers: " + json.dumps(
        {name: round(metrics[name], 6) for name in LAYER_ORDER}))
    return metrics, attempted, failed, notes
