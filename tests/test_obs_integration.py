"""End-to-end observability: every solver leaves phases and traces."""

import json
import os

import pytest

import repro.obs as obs
from repro.cathy import CathyEM
from repro.core import LatentEntityMiner, MinerConfig
from repro.corpus import Corpus
from repro.network import build_term_network
from repro.phrases import ToPMine, ToPMineConfig
from repro.relations import Candidate, CandidateGraph, ROOT, TPFG
from repro.strod import STROD


#: Pipeline phases the miner facade itself must account for.
MINER_PHASES = ["miner.fit", "miner.network_collapse", "miner.hierarchy",
                "miner.phrase_decoration", "miner.entity_ranking",
                "miner.roles"]


@pytest.fixture(scope="module")
def miner_report(tmp_path_factory):
    """Fit the miner once with observability on; snapshot report + traces.

    The autouse obs reset runs after every test, so everything the tests
    need is captured here, before any teardown can clear it.
    """
    from repro.datasets import DBLPConfig, generate_dblp
    dataset = generate_dblp(DBLPConfig(max_authors=80), seed=3)
    report_path = str(tmp_path_factory.mktemp("obs") / "report.json")
    obs.configure(report_path=report_path)
    try:
        miner = LatentEntityMiner(
            MinerConfig(num_children=3, max_depth=1), seed=0)
        result = miner.fit(dataset.corpus)
        traces = [t.to_dict() for t in obs.get_traces()]
    finally:
        obs.reset()
    return {"result": result, "report": result.report,
            "traces": traces, "report_path": report_path}


class TestMinerRunReport:
    def test_report_attached_to_result(self, miner_report):
        assert miner_report["report"] is not None
        obs.validate_report(miner_report["report"])

    def test_all_pipeline_phases_timed(self, miner_report):
        phases = miner_report["report"]["phases"]
        for name in MINER_PHASES:
            assert name in phases, name
            assert phases[name]["count"] >= 1
            assert phases[name]["total_s"] >= 0.0

    def test_nested_solver_phases_present(self, miner_report):
        phases = miner_report["report"]["phases"]
        for name in ["cathy.hin_em.fit", "topmine.frequent_mining",
                     "phrases.topical_frequency", "phrases.ranking"]:
            assert name in phases, name

    def test_fit_wall_time_dominates(self, miner_report):
        phases = miner_report["report"]["phases"]
        total = phases["miner.fit"]["total_s"]
        for name in MINER_PHASES[1:]:
            assert phases[name]["total_s"] <= total

    def test_convergence_traces_recorded(self, miner_report):
        names = {t["name"] for t in miner_report["traces"]}
        assert "cathy.hin_em" in names
        for t in miner_report["traces"]:
            if t["name"] != "cathy.hin_em":
                continue
            assert t["termination"] in ("converged", "max_iter")
            assert t["num_iterations"] >= 1
            # Link-type weight re-learning between iterations re-scales
            # the objective, so only overall improvement is guaranteed.
            lls = [r["log_likelihood"] for r in t["iterations"]]
            assert lls[-1] >= lls[0] - 1e-6

    def test_report_written_to_configured_path(self, miner_report):
        assert os.path.exists(miner_report["report_path"])
        with open(miner_report["report_path"]) as handle:
            data = json.load(handle)
        obs.validate_report(data)
        assert data["config"]["num_documents"] > 0
        assert data["config"]["vocabulary_size"] > 0

    def test_report_absent_when_disabled(self, miner_report):
        """Without configure(), fit() attaches no report (fast path)."""
        result = miner_report["result"]
        assert result.report is not None  # sanity: enabled run had one
        from repro.datasets import DBLPConfig, generate_dblp
        dataset = generate_dblp(DBLPConfig(max_authors=60), seed=3)
        miner = LatentEntityMiner(
            MinerConfig(num_children=2, max_depth=1), seed=0)
        assert miner.fit(dataset.corpus).report is None


class TestPhraseDecorationSpans:
    def test_phrase_layers_nest_under_decoration(self):
        """With spans on, mining, the Eq. 4.3 table and ranking show up
        as children of ``miner.phrase_decoration`` in the span tree."""
        from repro.datasets import DBLPConfig, generate_dblp
        dataset = generate_dblp(DBLPConfig(max_authors=60), seed=3)
        obs.set_enabled(True)
        obs.set_spans_enabled(True)
        LatentEntityMiner(MinerConfig(num_children=2, max_depth=1),
                          seed=0).fit(dataset.corpus)
        by_id = {record["span_id"]: record for record in obs.get_spans()}

        def ancestors(record):
            names = []
            while record["parent_id"] in by_id:
                record = by_id[record["parent_id"]]
                names.append(record["name"])
            return names

        (mining,) = obs.get_spans("topmine.frequent_mining")
        assert ancestors(mining)[:2] == ["phrases.topical_frequency",
                                         "miner.phrase_decoration"]
        for name in ("phrases.topical_frequency", "phrases.ranking"):
            (record,) = obs.get_spans(name)
            assert ancestors(record)[0] == "miner.phrase_decoration"
        # Spans still observe into the registry timers.
        timers = obs.get_registry().snapshot()["timers"]
        assert timers["topmine.frequent_mining"]["count"] == 1


class TestCathyEMTrace:
    def test_trace_has_monotone_likelihood(self):
        texts = (["red green blue"] * 10) + (["cat dog bird"] * 10)
        network = build_term_network(Corpus.from_texts(texts))
        obs.set_enabled(True)
        CathyEM(num_topics=2, seed=0).fit(network)
        traces = obs.get_traces("cathy.em")
        assert traces  # one per restart
        for t in traces:
            assert t.termination in ("converged", "max_iter")
            lls = t.series("log_likelihood")
            assert len(lls) == t.num_iterations
            assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_context_describes_problem(self):
        texts = ["alpha beta gamma"] * 6
        network = build_term_network(Corpus.from_texts(texts))
        obs.set_enabled(True)
        CathyEM(num_topics=2, seed=0, restarts=1).fit(network)
        (t,) = obs.get_traces("cathy.em")
        assert t.context["num_topics"] == 2
        assert t.context["num_nodes"] == 3  # alpha, beta, gamma


class TestToPMineTelemetry:
    def test_phases_and_gibbs_trace(self, tiny_corpus):
        obs.set_enabled(True)
        ToPMine(ToPMineConfig(num_topics=2, lda_iterations=8),
                seed=0).fit(tiny_corpus)
        timers = obs.get_registry().snapshot()["timers"]
        for name in ["topmine.frequent_mining", "topmine.segmentation",
                     "topmine.lda", "topmine.ranking"]:
            assert name in timers, name
        (t,) = obs.get_traces("lda.gibbs")
        assert t.termination == "completed"
        assert t.num_iterations == 8
        lls = t.series("log_likelihood")
        assert len(lls) == 8 and all(ll <= 0.0 for ll in lls)


class TestStrodTelemetry:
    def test_power_iteration_traced_per_component(self, planted_small):
        obs.set_enabled(True)
        STROD(num_topics=4, alpha0=1.0, seed=0).fit(
            planted_small.docs, planted_small.vocab_size)
        traces = obs.get_traces("strod.tensor_power")
        assert len(traces) == 4
        for component, t in enumerate(traces):
            assert t.context["component"] == component
            assert t.termination == "completed"
            residuals = t.series("residual")
            assert residuals and residuals[-1] < 0.5
        timers = obs.get_registry().snapshot()["timers"]
        for name in ["strod.fit", "strod.whitening", "strod.third_moment",
                     "strod.tensor_decomposition", "strod.recovery"]:
            assert name in timers, name


class TestTPFGTelemetry:
    @staticmethod
    def _graph():
        graph = CandidateGraph()
        graph.candidates["senior"] = [
            Candidate("senior", "prof", 1995, 2002, 0.8),
            Candidate("senior", ROOT, 1995, 2005, 0.2)]
        graph.candidates["junior"] = [
            Candidate("junior", "senior", 2000, 2004, 0.45),
            Candidate("junior", "prof", 2000, 2004, 0.40),
            Candidate("junior", ROOT, 2000, 2005, 0.15)]
        graph.candidates["prof"] = [
            Candidate("prof", ROOT, 1990, 2005, 1.0)]
        return graph

    def test_message_passing_traced(self):
        obs.set_enabled(True)
        TPFG(max_iter=10).fit(self._graph())
        (t,) = obs.get_traces("tpfg.message_passing")
        assert t.termination == "max_iter"
        assert t.num_iterations == 10
        residuals = t.series("residual")
        # max-sum on a tiny DAG settles: late deltas no larger than early
        assert residuals[-1] <= residuals[0] + 1e-12
        timers = obs.get_registry().snapshot()["timers"]
        assert timers["tpfg.fit"]["count"] == 1
