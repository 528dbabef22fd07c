"""Tests for the command-line interface.

Subcommands run in-process through cli.main(argv) so exit codes and stdout
can be asserted directly. The staged fixture chains plan -> align -> track
-> ba over one synthetic scene (18 cameras, N=18/T=9/O=3 gives 3 subsets);
the run subcommand must then reproduce those cached-stage artifacts
byte-for-byte.
"""

import json
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from scenemerge.cli import main
from scenemerge.io_formats import read_poses, read_tracks, write_poses, write_tracks

SEED = 13
N_CAMERAS = 18
N_LANDMARKS = 600
SUBSET_SIZE = 9
OVERLAP = 3


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "scene"
    code = main(
        [
            "synth",
            "--seed", str(SEED),
            "--cameras", str(N_CAMERAS),
            "--landmarks", str(N_LANDMARKS),
            "--subset-size", str(SUBSET_SIZE),
            "--overlap", str(OVERLAP),
            "--out", str(root),
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def staged(scene_dir, tmp_path_factory):
    """Artifacts from running each stage subcommand in sequence."""
    work = tmp_path_factory.mktemp("staged")
    paths = {
        "plan": work / "plan.json",
        "transforms": work / "transforms.json",
        "tracks": work / "tracks.bin",
        "refined": work / "refined",
    }
    assert main(
        [
            "plan",
            "--similarity", str(scene_dir / "similarity.mrgt"),
            "--subset-size", str(SUBSET_SIZE),
            "--overlap", str(OVERLAP),
            "--out", str(paths["plan"]),
        ]
    ) == 0
    assert main(
        [
            "align",
            "--plan", str(paths["plan"]),
            "--clusters", str(scene_dir),
            "--out", str(paths["transforms"]),
        ]
    ) == 0
    assert main(
        [
            "track",
            "--plan", str(paths["plan"]),
            "--clusters", str(scene_dir),
            "--transforms", str(paths["transforms"]),
            "--out", str(paths["tracks"]),
        ]
    ) == 0
    assert main(
        [
            "ba",
            "--scene", str(scene_dir),
            "--tracks", str(paths["tracks"]),
            "--out", str(paths["refined"]),
        ]
    ) == 0
    return paths


class TestSynth:
    def test_creates_scene_layout(self, scene_dir):
        assert (scene_dir / "manifest.json").exists()
        assert (scene_dir / "gt" / "synth.json").exists()

    def test_rejects_bad_layout(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--layout", "city", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2  # argparse rejects unknown choices


class TestPlan:
    def test_stdout_json_when_no_out(self, scene_dir, capsys):
        code = main(
            [
                "plan",
                "--similarity", str(scene_dir / "similarity.mrgt"),
                "--subset-size", str(SUBSET_SIZE),
                "--overlap", str(OVERLAP),
                "--k", "3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subset_size"] == SUBSET_SIZE
        assert doc["n_subsequences"] == 3
        assert len(doc["subsets"]) == 3
        assert sorted(doc["pseudo_order"]) == list(range(N_CAMERAS))

    def test_file_matches_stdout(self, scene_dir, staged, capsys):
        code = main(
            [
                "plan",
                "--similarity", str(scene_dir / "similarity.mrgt"),
                "--subset-size", str(SUBSET_SIZE),
                "--overlap", str(OVERLAP),
            ]
        )
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(staged["plan"].read_text())
        assert stdout_doc == file_doc

    def test_missing_similarity_file_exits_3(self, tmp_path, capsys):
        code = main(["plan", "--similarity", str(tmp_path / "none.mrgt")])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestStagedArtifacts:
    def test_transforms_cover_all_clusters(self, staged):
        doc = json.loads(staged["transforms"].read_text())
        assert [t["cluster_id"] for t in doc["clusters"]] == [0, 1, 2]

    def test_tracks_nonempty(self, staged):
        tracks = read_tracks(staged["tracks"])
        assert len(tracks) > 0
        assert all(len(t.observations) >= 2 for t in tracks)

    def test_ba_outputs(self, staged):
        refined = staged["refined"]
        assert (refined / "poses_refined.json").exists()
        assert (refined / "merged.ply").exists()
        header = (refined / "ba_loss.csv").read_text().splitlines()[0]
        assert header == "iteration,lr,loss"

    def test_ba_default_transforms_needs_sibling(self, scene_dir, staged, tmp_path, capsys):
        lonely = tmp_path / "tracks.bin"
        lonely.write_bytes(staged["tracks"].read_bytes())
        code = main(
            ["ba", "--scene", str(scene_dir), "--tracks", str(lonely), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "pass --transforms explicitly" in capsys.readouterr().err


class TestEval:
    def test_metrics_json_on_stdout(self, scene_dir, staged, capsys):
        code = main(
            [
                "eval",
                "--est", str(staged["refined"] / "poses_refined.json"),
                "--gt", str(scene_dir / "gt" / "poses.json"),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_cameras"] == N_CAMERAS
        traj = doc["trajectory"]
        assert traj["ate"] < 0.1
        assert traj["rra_at"]["30"] == 100.0

    def test_cloud_metrics(self, scene_dir, staged, capsys):
        code = main(
            [
                "eval",
                "--est", str(staged["refined"] / "poses_refined.json"),
                "--gt", str(scene_dir / "gt" / "poses.json"),
                "--pred-cloud", str(staged["refined"] / "merged.ply"),
                "--gt-cloud", str(scene_dir / "gt" / "landmarks.ply"),
            ]
        )
        assert code == 0
        cloud = json.loads(capsys.readouterr().out)["point_cloud"]
        assert 0 < cloud["accuracy"] < 0.2
        assert 0 < cloud["completion"] < 0.2

    def test_cloud_flags_must_pair(self, scene_dir, staged, capsys):
        code = main(
            [
                "eval",
                "--est", str(staged["refined"] / "poses_refined.json"),
                "--gt", str(scene_dir / "gt" / "poses.json"),
                "--pred-cloud", str(staged["refined"] / "merged.ply"),
            ]
        )
        assert code == 2
        assert "must be given together" in capsys.readouterr().err

    def test_frame_id_mismatch_exits_3(self, scene_dir, staged, tmp_path, capsys):
        records = read_poses(staged["refined"] / "poses_refined.json")
        partial = tmp_path / "partial.json"
        write_poses(partial, records[:-1])
        code = main(
            ["eval", "--est", str(partial), "--gt", str(scene_dir / "gt" / "poses.json")]
        )
        assert code == 3
        assert "different frame ids" in capsys.readouterr().err


class TestRun:
    def test_reproduces_staged_artifacts_byte_for_byte(self, scene_dir, staged, tmp_path):
        code = main(
            [
                "run",
                "--scene", str(scene_dir),
                "--out", str(tmp_path),
                "--subset-size", str(SUBSET_SIZE),
                "--overlap", str(OVERLAP),
            ]
        )
        assert code == 0
        pairs = [
            (staged["plan"], tmp_path / "plan.json"),
            (staged["transforms"], tmp_path / "transforms.json"),
            (staged["tracks"], tmp_path / "tracks.bin"),
            (staged["refined"] / "poses_refined.json", tmp_path / "poses_refined.json"),
            (staged["refined"] / "merged.ply", tmp_path / "merged.ply"),
            (staged["refined"] / "ba_loss.csv", tmp_path / "ba_loss.csv"),
        ]
        for cached, from_run in pairs:
            assert cached.read_bytes() == from_run.read_bytes(), from_run.name

    def test_synth_flag_generates_then_runs(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scene", str(tmp_path / "scene"),
                "--out", str(tmp_path / "out"),
                "--synth",
                "--seed", "3",
                "--cameras", "12",
                "--landmarks", "400",
                "--subset-size", "6",
                "--overlap", "2",
            ]
        )
        assert code == 0
        assert (tmp_path / "scene" / "gt" / "synth.json").exists()
        assert (tmp_path / "out" / "metrics.json").exists()
        assert "merged 12 images" in capsys.readouterr().out

    def test_config_file_and_flag_precedence(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"subset_size": SUBSET_SIZE, "overlap": OVERLAP, "ba_iterations": 50})
        )
        code = main(
            [
                "run",
                "--scene", str(scene_dir),
                "--out", str(tmp_path / "out"),
                "--config", str(cfg),
                "--iters", "80",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["subset_size"] == SUBSET_SIZE  # from file
        assert report["config"]["ba_iterations"] == 80  # flag wins

    def test_unknown_config_key_exits_2(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subset_sizes": 9}))
        code = main(
            ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 2
        assert "unknown config field" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["threads", "seed"])
    def test_removed_config_fields_exit_2(self, scene_dir, tmp_path, capsys, field):
        """threads and seed left PipelineConfig; a config file naming them is
        rejected like any other unknown field."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: 1}))
        code = main(
            ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 2
        assert f"unknown config field {field!r}" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        code = main(
            ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 2


class TestExitCodes:
    def test_config_error_exits_2(self, scene_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scene", str(scene_dir),
                "--out", str(tmp_path),
                "--subset-size", "9",
                "--overlap", "20",
            ]
        )
        assert code == 2
        assert "overlap" in capsys.readouterr().err

    def test_data_error_exits_3(self, tmp_path, capsys):
        code = main(["run", "--scene", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "load stage" in capsys.readouterr().err

    def test_divergence_exits_4(self, scene_dir, staged, tmp_path, capsys):
        heavy = [replace(t, confidence=1e200) for t in read_tracks(staged["tracks"])]
        tracks = tmp_path / "tracks.bin"
        write_tracks(tracks, heavy)
        code = main(
            [
                "ba",
                "--scene", str(scene_dir),
                "--tracks", str(tracks),
                "--transforms", str(staged["transforms"]),
                "--iters", "5",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 4
        assert "iteration" in capsys.readouterr().err

    def test_irls_divergence_exits_4(self, scene_dir, staged, tmp_path, monkeypatch, capsys):
        from scenemerge import alignment
        from scenemerge.geometry import Sim3Transform

        real = alignment.weighted_umeyama
        calls = []

        def worse_after_init(pa, pb, w):
            t = real(pa, pb, w)
            calls.append(t)
            if len(calls) == 1:
                return t
            return Sim3Transform(scale=2.0 * t.scale, rotation=t.rotation, translation=t.translation)

        monkeypatch.setattr(alignment, "weighted_umeyama", worse_after_init)
        code = main(
            [
                "align",
                "--plan", str(staged["plan"]),
                "--clusters", str(scene_dir),
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 4
        assert "IRLS objective increased" in capsys.readouterr().err

    def test_infinite_depth_exits_3_naming_frame(self, scene_dir, tmp_path, capsys):
        import shutil

        from scenemerge.io_formats import read_manifest, read_tensor, write_tensor

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        entry = read_manifest(scene / "manifest.json").clusters[1]
        fid, rel = entry.frame_ids[0], entry.depth_paths[0]
        depth = read_tensor(scene / rel)
        depth[3, 4] = float("inf")
        write_tensor(scene / rel, depth)
        code = main(["run", "--scene", str(scene), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"load stage: cluster 1 frame {fid}: non-finite value in depth tensor {rel}" in err

    def test_track_plan_mismatch_exits_2(self, scene_dir, staged, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(
            [
                "plan",
                "--similarity", str(scene_dir / "similarity.mrgt"),
                "--subset-size", str(SUBSET_SIZE + 3),
                "--overlap", str(OVERLAP),
                "--out", str(plan),
            ]
        ) == 0
        code = main(
            [
                "track",
                "--plan", str(plan),
                "--clusters", str(scene_dir),
                "--transforms", str(staged["transforms"]),
                "--out", str(tmp_path / "tracks.bin"),
            ]
        )
        assert code == 2
        assert "partition settings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rel, edit, reader, message",
        [
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].pop("fx"),
                "read_poses",
                "poses[0]: missing field 'fx'",
            ),
            (
                "manifest.json",
                lambda doc: doc["images"][0].pop("width"),
                "read_manifest",
                "images[0]: missing field 'width'",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"].__setitem__(0, list(doc["poses"][0].values())),
                "read_poses",
                "poses[0]: must be a JSON object, got list",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc.__setitem__("poses", dict(enumerate(doc["poses"]))),
                "read_poses",
                "field 'poses' must be a list, got dict",
            ),
            ("plan.json", lambda doc: doc.pop("n_subsequences"), "read_plan", "missing field 'n_subsequences'"),
        ],
        ids=["pose-without-fx", "image-without-width", "pose-as-list", "poses-as-object", "plan-without-n_subsequences"],
    )
    def test_malformed_json_entry_exits_3(self, scene_dir, staged, tmp_path, capsys, rel, edit, reader, message):
        """A missing field or a non-object entry is a SchemaViolationError
        naming the file, the entry and the field, and the CLI exits 3."""
        import shutil

        from scenemerge import io_formats
        from scenemerge.errors import SchemaViolationError

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        shutil.copy(staged["plan"], scene / "plan.json")
        path = scene / rel
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolationError, match=re.escape(message)):
            getattr(io_formats, reader)(path)
        if rel == "plan.json":
            argv = [
                "track",
                "--plan", str(path),
                "--clusters", str(scene),
                "--transforms", str(staged["transforms"]),
                "--out", str(tmp_path / "tracks.bin"),
            ]
        else:
            argv = ["run", "--scene", str(scene), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err

    def test_bad_flag_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--similarity", "x", "--subset-size", "many"])
        assert exc.value.code == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestLogging:
    def test_info_level_from_env(self, scene_dir, staged, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MERG3R_LOG", "INFO")
        code = main(
            [
                "align",
                "--plan", str(staged["plan"]),
                "--clusters", str(scene_dir),
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 0
        assert "INFO" in capsys.readouterr().err

    def test_invalid_level_warns_and_falls_back(self, scene_dir, staged, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MERG3R_LOG", "LOUD")
        code = main(
            [
                "align",
                "--plan", str(staged["plan"]),
                "--clusters", str(scene_dir),
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "unrecognized" in err and "LOUD" in err
        assert "INFO" not in err  # fell back to WARNING

    def test_default_keeps_stderr_quiet(self, scene_dir, staged, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MERG3R_LOG", raising=False)
        code = main(
            [
                "align",
                "--plan", str(staged["plan"]),
                "--clusters", str(scene_dir),
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""


class TestConsoleEntry:
    def test_module_is_executable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scenemerge.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "run" in proc.stdout
