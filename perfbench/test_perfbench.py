"""Checks of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import stats
from spans import Tracer
from workloads import WORKLOADS, Exploration, sims_to_target

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: metric and workload names: a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``, at most 64 characters in all
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time((1.0, 4.0), []) == 3.0

    def test_disjoint_children(self):
        assert stats.self_time((0.0, 10.0), [(1.0, 2.0), (5.0, 8.0)]) == 6.0

    def test_overlap_counted_once(self):
        assert stats.covered((0.0, 10.0), [(1.0, 5.0), (3.0, 6.0)]) == 5.0

    def test_children_clipped_to_parent(self):
        assert stats.covered((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0)]) == 1.5

    def test_child_outside_parent_ignored(self):
        assert stats.covered((2.0, 4.0), [(5.0, 6.0), (0.0, 1.0)]) == 0.0


class TestTracer:
    def test_nesting_and_residue(self):
        tracer = Tracer()
        with tracer.span("api.explore"):
            with tracer.span("core.step"):
                with tracer.span("simulate.evaluate", evals=3):
                    pass
            with tracer.span("core.save"):
                pass
        explore, step, evaluate, save = tracer.spans
        assert step.parent == 0 and save.parent == 0 and evaluate.parent == 1
        # children plus the unaccounted residue make up the parent
        residue = tracer.total_self("api.explore")
        assert residue == pytest.approx(
            explore.duration - step.duration - save.duration
        )
        assert tracer.total_self("core.step") == pytest.approx(
            step.duration - evaluate.duration
        )
        assert tracer.attr_sum("simulate.evaluate", "evals") == 3

    def test_patched_method_records_counts(self):
        class Agent:
            def propose(self, n):
                return list(range(n))

        tracer = Tracer()
        tracer.patch(Agent, "propose", "search.propose",
                     count=lambda _a, r: {"proposals": len(r)})
        assert Agent().propose(4) == [0, 1, 2, 3]
        assert tracer.attr_sum("search.propose", "proposals") == 4


class TestPercentiles:
    def test_forty_samples_give_p75(self):
        assert stats.tail_quantile(40) == 0.75
        # ten of forty samples lie strictly above the p75 position
        values = list(range(40))
        p75 = stats.percentile(values, 0.75)
        assert sum(1 for v in values if v > p75) == 10

    def test_more_samples_reach_higher(self):
        assert stats.tail_quantile(100) == 0.9
        assert stats.tail_quantile(11) == pytest.approx(1 / 11)

    def test_too_few_samples(self):
        assert stats.tail_quantile(10) is None
        assert stats.tail_quantile(3) is None

    def test_serve_workload_reaches_p75(self):
        jobs = len(WORKLOADS["serve-jobs"].explore)
        assert stats.tail_quantile(jobs) >= run.TAIL_Q

    def test_serve_run_short_of_the_tail_fails(self):
        w = WORKLOADS["serve-jobs"]
        jobs = [{"key": w.explore[0].key(), "status": "done",
                 "turnaround_s": 1.0}] * 39
        rep = {"jobs": jobs, "attempted": 39, "failed": 0, "wall_s": 1.0,
               "cpu_s": 1.0, "peak_rss_mb": 1.0}
        with pytest.raises(run.BenchError, match="beyond p75"):
            run.end_to_end(w, [rep], [1.0], Path("unused"))

    def test_interpolation(self):
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert stats.percentile([5.0], 0.75) == 5.0
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)


class TestNames:
    @pytest.mark.parametrize("name", [
        "wall_s", "core.fit_s", "explore-scalar", "p75", "9lives",
        "a" * 64,
    ])
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize("name", [
        "", "_x", ".x", "-x", "a b", "a/b", "x%", "a" * 65, "é",
    ])
    def test_invalid(self, name):
        assert not valid_name(name)

    def test_every_name_in_use_is_valid(self):
        names = (list(run.END_TO_END) + list(run.PER_LAYER)
                 + list(WORKLOADS))
        assert all(valid_name(n) for n in names)
        assert len(set(names)) == len(names)


class TestSpanChecks:
    @staticmethod
    def account(wall, unaccounted, fit, phase):
        return {"explores": [{
            "key": "k", "wall_s": wall, "unaccounted_s": unaccounted,
            "fit_s": fit, "train_phase_s": phase,
        }]}

    def test_accounted_exploration_passes(self):
        assert run.check_spans([self.account(10.0, 0.1, 9.0, 9.05)]) == []

    def test_residue_fails_the_run(self):
        errors = run.check_spans([self.account(10.0, 0.6, 9.0, 9.0)])
        assert len(errors) == 1 and "unexplained" in errors[0]

    def test_fit_drift_fails_the_run(self):
        errors = run.check_spans([self.account(10.0, 0.1, 9.0, 8.0)])
        assert len(errors) == 1 and "explore.train" in errors[0]

    def test_each_exploration_is_checked_on_its_own(self):
        # pooled, 0.6 s of 20 s would pass; the short one alone fails
        outs = [self.account(18.0, 0.05, 17.0, 17.0),
                self.account(2.0, 0.55, 1.4, 1.4)]
        assert len(run.check_spans(outs)) == 1


def test_program_digest_follows_the_sources(tmp_path, monkeypatch):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    first = run.program_digest()
    (src / "__pycache__").mkdir()
    (src / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert run.program_digest() == first
    (src / "a.py").write_text("x = 2\n")
    assert run.program_digest() != first


class TestBenchmarkJson:
    def test_matches_what_run_prints(self):
        spec = json.loads(BENCHMARK.read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
            == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
            == run.PER_LAYER
        assert any(m["name"] == "setup_s" and m["better"] == "lower"
                   for m in spec["end_to_end"])
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_sims_to_target():
    e = Exploration("memory-system", "mesa", 17, 200, 50, "default", 1.0)
    assert sims_to_target(e, [[50, 9.0], [100, 6.0], [150, 4.0]]) == 100.0
    assert sims_to_target(e, [[50, 9.0], [100, 7.0]]) == 250.0


def test_mean_pct_error():
    assert stats.mean_pct_error([1.1, 1.8], [1.0, 2.0]) == pytest.approx(10.0)
