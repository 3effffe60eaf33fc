"""Tests of the benchmark itself: its gates, its tracer and its metadata.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bracelab  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import TARGETS, Tracer, layer_metric_units  # noqa: E402
from worker import run_repetition  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CensusWorkload,
    FilesWorkload,
    VerifyWorkload,
    _flat_tables_digest,
    _reports_digest,
    _type_split,
)


def repetition(workload, seed=0, tracer=None):
    sampler = SpeedSampler()
    sampler.start()
    try:
        return run_repetition(workload, workload.prepare(seed), sampler, tracer)
    finally:
        sampler.stop()


def small_census() -> CensusWorkload:
    census = bracelab.enumerate_braces(8)
    return CensusWorkload(8, _type_split(census), _flat_tables_digest(census))


def small_verify() -> VerifyWorkload:
    orders = (4, 6, 8)
    reports = bracelab.run_census_checks(list(orders))
    counts = tuple(
        sum(1 for r in reports if r.verdict == v)
        for v in (bracelab.PASS, bracelab.FAIL, bracelab.HYPOTHESIS_NOT_MET)
    )
    return VerifyWorkload(orders, 8, counts, _reports_digest(reports))


class GateTest(unittest.TestCase):
    def test_census_gates(self):
        good = small_census()
        self.assertEqual(repetition(good)["failed"], 0)
        bad_digest = dataclasses.replace(good, digest="0" * 64)
        self.assertEqual(repetition(bad_digest)["failed"], 1)
        bad_split = dataclasses.replace(good, type_split=good.type_split[::-1])
        self.assertEqual(repetition(bad_split)["failed"], 1)

    def test_verify_gates(self):
        good = small_verify()
        self.assertEqual(repetition(good)["failed"], 0)
        passed, fail, not_met = good.verdicts
        bad_counts = dataclasses.replace(good, verdicts=(passed - 1, fail + 1, not_met))
        out = repetition(bad_counts)
        self.assertEqual(out["failed"], 1)
        self.assertIn("reports split", out["errors"][0])
        self.assertEqual(repetition(dataclasses.replace(good, digest="x"))["failed"], 1)

    def test_files_gates(self):
        workload = FilesWorkload(semidirect_48=1, semidirect_64=0, wreath_64=1)
        self.assertEqual(repetition(workload, seed=3)["failed"], 0)
        real = bracelab.permutation_group_order
        with mock.patch.object(bracelab, "permutation_group_order",
                               lambda s: real(s) + 1):
            self.assertEqual(repetition(workload, seed=3)["failed"], 2)
        with mock.patch.object(bracelab, "semidirect", side_effect=ValueError("boom")):
            out = repetition(workload, seed=3)
        self.assertEqual((out["attempted"], out["failed"]), (2, 1))
        self.assertIn("ValueError: boom", out["errors"])

    def test_seed_picks_the_pairs(self):
        files = WORKLOADS["files-64"]
        ops = files.prepare(5)
        self.assertEqual(ops, files.prepare(5))
        self.assertNotEqual(ops, files.prepare(6))
        kinds = sorted(op[0] for op in ops)
        self.assertEqual(kinds, sorted(op[0] for op in files.prepare(6)))
        eights = [b for op in ops if op[0] == "semidirect" for b in op[1:]
                  if b.order == 8]
        self.assertEqual(len(eights), 2 * files.semidirect_64 + files.semidirect_48)
        self.assertEqual(len(set(eights)), len(eights))


class TracerTest(unittest.TestCase):
    def test_wraps_every_module_that_imports_a_target(self):
        original = bracelab.brace.validate_brace
        checks = bracelab.checks.ALL_CHECKS
        tracer = Tracer()
        tracer.install()
        try:
            wrapped = bracelab.brace.validate_brace
            self.assertIsNot(wrapped, original)
            for module in (bracelab, bracelab.census, bracelab.documents,
                           bracelab.products):
                self.assertIs(module.validate_brace, wrapped)
            self.assertTrue(all(c.__wrapped__ for c in bracelab.checks.ALL_CHECKS))
            self.assertEqual(bracelab.ALL_CHECKS, bracelab.checks.ALL_CHECKS)
        finally:
            tracer.uninstall()
        self.assertIs(bracelab.documents.validate_brace, original)
        self.assertIs(bracelab.checks.ALL_CHECKS, checks)
        self.assertIs(bracelab.ALL_CHECKS, checks)

    def test_absent_or_changed_names_do_not_stop_the_run(self):
        targets = TARGETS + (
            ("census", "no_such_function"),
            ("brace", "LeftBrace.dot_table"),  # a cached_property, not a method
            ("no_such_module", "anything"),
        )
        tracer = Tracer(targets)
        tracer.install()
        try:
            out = repetition(small_census(), tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(out["failed"], 0)
        self.assertEqual(out["absent"], [
            "census.no_such_function (missing)",
            "brace.LeftBrace.dot_table (cached_property)",
            "no_such_module.anything (missing)",
        ])
        layers = out["layers"]
        self.assertEqual(layers["trace.absent"], 3)
        self.assertEqual(layers["census.enumerate_braces.calls"], 1)
        self.assertEqual(layers["census.classes"], 27)
        self.assertEqual(layers["census.no_such_function.calls"], 0)
        self.assertGreater(layers["trace.coverage"], 0.95)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            out = repetition(small_census(), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = out["layers"]
        spans = sum(v for k, v in layers.items() if k.endswith(".s"))
        self.assertLessEqual(spans, out["wall_s"])
        self.assertAlmostEqual(spans / out["speed"], tracer.top_level_s, places=6)


class SpeedTest(unittest.TestCase):
    def test_sampler_scales_by_probe_speed(self):
        sampler = SpeedSampler()
        sampler.start()
        try:
            bracelab.enumerate_braces(8)
        finally:
            sampler.stop()
        self.assertGreater(sampler.mark(), 0)
        self.assertGreater(sampler.speed(), 0)
        sampler.samples[:] = [speed.REFERENCE_S / 2] * 3
        self.assertAlmostEqual(sampler.speed(1), 2.0)
        self.assertAlmostEqual(sampler.speed(5, 9), 2.0)  # empty window: all


class MetadataTest(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(run.WORKLOADS), sorted(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, layer_metric_units())

    def test_checkout_without_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census-24",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
