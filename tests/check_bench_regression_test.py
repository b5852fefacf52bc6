#!/usr/bin/env python3
"""Unit tests for the bench tooling: check_bench_regression.py's diff and
gating logic over schema-versioned bench_matrix artifacts and
validate_bench_artifact.py's mini JSON-Schema validator. Registered with ctest so the merge gate's own
logic is itself gated.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))

import check_bench_regression as cbr  # noqa: E402
import validate_bench_artifact as vba  # noqa: E402


def matrix_artifact(eps=1.0e9, stable=True, bit_identical=True,
                    scale="fast"):
    return {
        "schema_version": 2,
        "bench": "bench_matrix",
        "scale": scale,
        "host": {"hardware_threads": 8, "simd_dispatch": "avx2"},
        "scenarios": [
            {"name": "simd_kernels", "stable": stable, "runs": [
                {"label": "add_mod",
                 "params": {"mechanism": "none", "modulus_class": "prime64",
                            "modulus": 97, "dim": 1048576,
                            "participants": 0, "dropout_rate": 0.0,
                            "corrupt_frame_rate": 0.0,
                            "dispatch": "scalar_vs_active", "shards": 1,
                            "threads": 1},
                 "seconds": 1048576 / eps, "items_per_sec": eps,
                 "bit_identical": bit_identical,
                 "metrics": {"speedup": 2.0}},
            ]},
            {"name": "encode", "stable": False, "runs": [
                {"label": "encode_smm",
                 "params": {"mechanism": "smm", "modulus_class": "pow2_16",
                            "modulus": 65536, "dim": 1024,
                            "participants": 32, "dropout_rate": 0.0,
                            "corrupt_frame_rate": 0.0,
                            "dispatch": "active", "shards": 1, "threads": 2},
                 "seconds": 0.5, "items_per_sec": 2.0e6,
                 "bit_identical": True, "metrics": {}},
            ]},
        ],
    }


def schema1_artifact(eps=1.0e9):
    """A schema-1 artifact, as cached baselines from before version 2 are:
    the same scenarios plus the runtime-tuning block version 2 dropped."""
    report = matrix_artifact(eps=eps)
    report["schema_version"] = 1
    report["tuning"] = {"source": "default", "tile_rows_per_thread": 32,
                        "threads_per_session": 0}
    return report


# Any artifact that is not a bench_matrix report (e.g. an older format).
NON_MATRIX_ARTIFACT = {"bench": "bench_legacy", "scale": "fast",
                       "sections": []}


class ArtifactFixtureMixin:
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, report):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(report, f)
        return path

    def run_check(self, baseline, current, *extra):
        argv = ["check_bench_regression.py", baseline, current, *extra]
        return cbr.main(argv)


class MatrixDiffTest(ArtifactFixtureMixin, unittest.TestCase):
    def test_identical_reports_pass_under_gate(self):
        p = self.write("a.json", matrix_artifact())
        self.assertEqual(self.run_check(p, p, "--fail-below", "0.5"), 0)

    def test_stable_regression_fails_gate(self):
        base = self.write("base.json", matrix_artifact(eps=1.0e9))
        cur = self.write("cur.json", matrix_artifact(eps=0.4e9))
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 1)

    def test_stable_regression_above_threshold_passes(self):
        base = self.write("base.json", matrix_artifact(eps=1.0e9))
        cur = self.write("cur.json", matrix_artifact(eps=0.6e9))
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 0)

    def test_nonstable_regression_is_informational(self):
        # The same throughput drop in a scenario not marked stable must not
        # gate: wall-time sections jitter too much on shared runners.
        base = self.write("base.json", matrix_artifact(eps=1.0e9,
                                                       stable=False))
        cur = self.write("cur.json", matrix_artifact(eps=0.1e9,
                                                     stable=False))
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 0)

    def test_bit_identity_violation_fails_even_without_gate(self):
        base = self.write("base.json", matrix_artifact())
        cur = self.write("cur.json", matrix_artifact(bit_identical=False))
        self.assertEqual(self.run_check(base, cur), 1)

    def test_scale_mismatch_is_informational(self):
        base = self.write("base.json", matrix_artifact(eps=1.0e9,
                                                       scale="full"))
        cur = self.write("cur.json", matrix_artifact(eps=0.1e9,
                                                     scale="fast"))
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 0)

    def test_missing_baseline_seeds_trajectory(self):
        cur = self.write("cur.json", matrix_artifact())
        self.assertEqual(
            self.run_check("/nonexistent/base.json", cur,
                           "--fail-below", "0.5"), 0)

    def test_non_matrix_baseline_seeds_trajectory(self):
        # A baseline in any other format is no readable baseline: seed, not
        # fail.
        base = self.write("base.json", NON_MATRIX_ARTIFACT)
        cur = self.write("cur.json", matrix_artifact(eps=0.1e9))
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 0)

    def test_unreadable_current_is_an_error(self):
        base = self.write("base.json", matrix_artifact())
        bad = self.write("bad.json", matrix_artifact())
        with open(bad, "w") as f:
            f.write("{not json")
        self.assertEqual(self.run_check(base, bad), 1)

    def test_non_matrix_current_is_an_error(self):
        base = self.write("base.json", matrix_artifact())
        cur = self.write("cur.json", NON_MATRIX_ARTIFACT)
        self.assertEqual(self.run_check(base, cur), 1)

    def test_schema1_baseline_matches_current_rows(self):
        # A cached schema-1 baseline still gates a schema-2 run: the rows
        # match by key, so a 2.5x kernel slowdown trips the gate and equal
        # throughput passes it.
        base = self.write("base.json", schema1_artifact(eps=1.0e9))
        slow = self.write("slow.json", matrix_artifact(eps=0.4e9))
        same = self.write("same.json", matrix_artifact(eps=1.0e9))
        self.assertEqual(self.run_check(base, slow, "--fail-below", "0.5"), 1)
        self.assertEqual(self.run_check(base, same, "--fail-below", "0.5"), 0)

    def test_new_point_is_not_gated(self):
        base = self.write("base.json", matrix_artifact())
        cur_report = matrix_artifact(eps=0.1e9)
        cur_report["scenarios"][0]["runs"][0]["label"] = "brand_new_case"
        cur = self.write("cur.json", cur_report)
        self.assertEqual(self.run_check(base, cur, "--fail-below", "0.5"), 0)


class SchemaValidatorTest(ArtifactFixtureMixin, unittest.TestCase):
    SCHEMA = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
        "bench_matrix_schema.json")

    def run_validate(self, report):
        path = self.write("artifact.json", report)
        return vba.main(["validate_bench_artifact.py", path, self.SCHEMA])

    def test_well_formed_matrix_artifact_conforms(self):
        self.assertEqual(self.run_validate(matrix_artifact()), 0)

    def test_non_matrix_artifact_rejected(self):
        self.assertEqual(self.run_validate(NON_MATRIX_ARTIFACT), 1)

    def test_missing_required_field_rejected(self):
        report = matrix_artifact()
        del report["host"]
        self.assertEqual(self.run_validate(report), 1)

    def test_schema1_artifact_rejected(self):
        # Version 2 dropped the tuning block; the schema accepts only 2.
        self.assertEqual(self.run_validate(schema1_artifact()), 1)

    def test_unknown_field_rejected(self):
        report = matrix_artifact()
        report["surprise"] = 1
        self.assertEqual(self.run_validate(report), 1)

    def test_wrong_type_rejected(self):
        report = matrix_artifact()
        report["scenarios"][0]["runs"][0]["seconds"] = "fast"
        self.assertEqual(self.run_validate(report), 1)

    def test_bad_enum_rejected(self):
        report = matrix_artifact()
        report["scale"] = "warp"
        self.assertEqual(self.run_validate(report), 1)

    def test_non_numeric_metric_rejected(self):
        report = matrix_artifact()
        report["scenarios"][0]["runs"][0]["metrics"]["note"] = "hi"
        self.assertEqual(self.run_validate(report), 1)

    def test_validator_does_not_mutate_input(self):
        report = matrix_artifact()
        snapshot = copy.deepcopy(report)
        self.run_validate(report)
        self.assertEqual(report, snapshot)


if __name__ == "__main__":
    unittest.main()
