"""Self-tests of the benchmark: declarations, generators, spans, guards.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Patcher, SpanRecorder, spanned, tree_error

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestDeclarations:
    def test_file_mirrors_the_declarations(self, declared):
        assert [w["name"] for w in declared["workloads"]] == \
            list(layers.WORKLOADS) == list(run.WORKLOAD_NAMES) == \
            list(workloads.WORKLOAD_TYPES)
        assert [(m["name"], m["unit"], m["better"], m["bound"])
                for m in declared["end_to_end"]] == list(layers.END_TO_END)
        assert [(m["name"], m["unit"], m["better"])
                for m in declared["per_layer"]] == \
            [entry[:3] for entry in layers.PER_LAYER]

    def test_names_units_and_bounds_are_valid(self, declared):
        metrics = declared["end_to_end"] + declared["per_layer"]
        names = [m["name"] for m in metrics] + \
            [w["name"] for w in declared["workloads"]]
        assert len(names) == len(set(names))
        for metric in metrics:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        for metric in declared["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        assert max(m["bound"] for m in declared["end_to_end"]) == \
            next(m["bound"] for m in declared["end_to_end"]
                 if m["name"] == "setup_s")
        for workload in declared["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert declared["command"] == ["python3", "perfbench/run.py"]
        assert 1 <= declared["run_seconds"] <= 60
        assert len(json.dumps(declared)) <= 64 * 1024

    def test_every_layer_metric_names_what_it_moves(self):
        end_to_end = {entry[0] for entry in layers.END_TO_END}
        for name, _, _, layer, moves in layers.PER_LAYER:
            assert layer and moves, name
            for metrics, targets in moves:
                assert set(metrics) <= end_to_end, name
                assert set(targets) <= set(layers.WORKLOADS), name

    def test_readme_documents_every_metric_and_workload(self, declared):
        readme = (run.BENCH_DIR / "README.md").read_text()
        for entry in declared["end_to_end"] + declared["per_layer"] + \
                declared["workloads"]:
            assert f"`{entry['name']}`" in readme, entry["name"]


class StubWorkload:
    name = "stub"
    serving = workloads.ServingStats()


class TestEmittedMetrics:
    """Both metric sets are assembled with every declared name."""

    def test_end_to_end_keys(self):
        measurement = run.Measurement(StubWorkload(), trace=False)
        assert list(measurement.end_to_end([0.1, 0.2, 0.3])) == \
            [entry[0] for entry in layers.END_TO_END]

    def test_per_layer_keys(self):
        measurement = run.Measurement(StubWorkload(), trace=True)
        assert set(measurement.per_layer()) == \
            {entry[0] for entry in layers.PER_LAYER}

    @pytest.mark.parametrize("trace", [0, 1])
    def test_a_short_run_prints_every_metric(self, trace):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "attack-duo",
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items()
                 if not k.startswith("REPRO_")})
        assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = layers.PER_LAYER if trace else layers.END_TO_END
        assert {name: value["unit"] for name, value in
                result["metrics"].items()} == \
            {entry[0]: entry[1] for entry in declared}
        if not trace:
            assert all(value["value"] > 0
                       for value in result["metrics"].values())


class TestGenerators:
    """The same seed gives the same inputs; another seed other inputs."""

    @staticmethod
    def timeline_key(items):
        keys = []
        for item in items:
            video = getattr(item, "video", None)
            keys.append((type(item).__name__, item.arrival_s,
                         getattr(item, "tenant", None),
                         getattr(item, "video_id", None),
                         None if video is None else video.video_id,
                         None if video is None else
                         float(video.pixels.sum())))
        return keys

    def test_timelines_repeat(self):
        first = workloads.ServeRead(5, str(ROOT))
        second = workloads.ServeRead(5, str(ROOT))
        other = workloads.ServeRead(6, str(ROOT))
        for index in range(3):
            assert self.timeline_key(first.items(index)) == \
                self.timeline_key(second.items(index))
        assert self.timeline_key(first.items(0)) != \
            self.timeline_key(other.items(0))

    def test_churn_streams_repeat_and_target_live_videos(self):
        from repro.serving import AddVideo, DeleteVideo, ReembedVideo

        first = workloads.ServeChurn(5, str(ROOT)).unit_stream()
        second = workloads.ServeChurn(5, str(ROOT)).unit_stream()
        live = {video.video_id for video in
                workloads.ServeChurn(5, str(ROOT)).gallery}
        for _ in range(4):
            items = next(first)
            assert self.timeline_key(items) == \
                self.timeline_key(next(second))
            events = sorted((item for item in items
                             if not hasattr(item, "tenant")),
                            key=lambda event: event.arrival_s)
            assert events
            for event in events:
                if isinstance(event, DeleteVideo):
                    live.remove(event.video_id)
                elif isinstance(event, ReembedVideo):
                    assert event.video.video_id in live
                else:
                    assert isinstance(event, AddVideo)
                    live.add(event.video.video_id)

    def test_attack_pairs_repeat(self):
        def pairs(seed):
            return [(a.video_id, b.video_id) for a, b in
                    workloads.AttackDuo(seed, str(ROOT)).pairs]

        assert pairs(5) == pairs(5)
        assert pairs(5) != pairs(6)
        assert all(a != b for a, b in pairs(5))


class TestSpans:
    def test_self_times_sum_to_the_traced_wall_time(self):
        recorder = SpanRecorder()

        class Layer:
            def outer(self):
                time.sleep(0.002)
                self.inner()
                self.inner()

            def inner(self):
                time.sleep(0.003)

        originals = dict(vars(Layer))
        patch = Patcher()
        patch.method(Layer, "outer", spanned(recorder, "outer", "a"))
        patch.method(Layer, "inner", spanned(recorder, "inner", "b"))
        recorder.enabled = True
        root = recorder.open("unit", "bench")
        start = time.perf_counter()
        Layer().outer()
        wall = time.perf_counter() - start
        recorder.close(root)
        patch.undo()
        assert tree_error(recorder.spans, root, wall) <= run.TREE_TOLERANCE
        assert [span[0] for span in recorder.spans] == \
            ["unit", "outer", "inner", "inner"]
        assert dict(vars(Layer)) == originals

    def test_layer_wrappers_are_class_level_and_undone(self):
        from repro.retrieval.service import RetrievalService

        before = dict(vars(RetrievalService))
        patch = layers.install(SpanRecorder())
        assert vars(RetrievalService)["query"] is not before["query"]
        patch.undo()
        assert dict(vars(RetrievalService)) == before


class TestGuards:
    def test_refuses_a_repro_variable(self):
        env = dict(os.environ, REPRO_EMBED_CACHE="0")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-read"],
            cwd=ROOT, capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 2
        assert "REPRO_EMBED_CACHE" in out.stderr
        assert not out.stdout.strip()

    def test_fails_without_the_program(self, tmp_path):
        shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "attack-duo",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items()
                 if not k.startswith("REPRO_")})
        assert out.returncode not in (0, None)
        assert not out.stdout.strip()


def test_percentiles_are_in_milliseconds():
    assert layers.percentile_ms([0.001, 0.002, 0.003], 50) == \
        pytest.approx(2.0)
    assert layers.percentile_ms([], 95) == 0.0
    assert np.isfinite(layers.percentile_ms([0.5], 95))
