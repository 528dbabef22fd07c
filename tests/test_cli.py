"""Tests for the command-line interface.

Subcommands run in-process through cli.main(argv) so exit codes and stdout
can be asserted directly. The staged fixture chains plan -> align -> track
-> ba over one synthetic scene (18 cameras, N=18/T=9/O=3 gives 3 subsets);
the run subcommand must then reproduce those cached-stage artifacts
byte-for-byte.
"""

import json
import re
import struct
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from scenemerge.cli import SETTING_FLAGS, main
from scenemerge.io_formats import read_ply, read_poses, read_tracks, write_ply, write_poses, write_tracks
from scenemerge.pipeline import PipelineConfig

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

    @pytest.mark.parametrize(
        "flags, message", [(["--landmarks", "-5"], "at least 1 landmark"), (["--seed", "-1"], "seed must be >= 0")]
    )
    def test_rejects_bad_scene_size_or_seed(self, tmp_path, capsys, flags, message):
        argv = ["synth", "--cameras", "12", "--landmarks", "400", "--subset-size", "6", "--overlap", "2"]
        assert main(argv + flags + ["--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err


class TestPlan:
    def test_stdout_json_when_no_out(self, scene_dir, capsys):
        code = main(
            [
                "plan",
                "--similarity", str(scene_dir / "similarity.mrgt"),
                "--subset-size", str(SUBSET_SIZE),
                "--overlap", str(OVERLAP),
                "--n-subsequences", "3",
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

    def test_subset_size_below_config_bound_exits_2(self, scene_dir, capsys):
        """plan checks its settings through PipelineConfig like run does."""
        code = main(
            ["plan", "--similarity", str(scene_dir / "similarity.mrgt"), "--subset-size", "1", "--overlap", "0"]
        )
        assert code == 2
        assert "subset_size must be >= 2" in capsys.readouterr().err

    def test_no_similarity_band_is_the_default(self, scene_dir, staged, capsys):
        code = main(
            [
                "plan",
                "--similarity", str(scene_dir / "similarity.mrgt"),
                "--subset-size", str(SUBSET_SIZE),
                "--overlap", str(OVERLAP),
                "--no-similarity-band",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == json.loads(staged["plan"].read_text())


class TestSettingFlags:
    def test_one_flag_per_config_field(self):
        assert set(SETTING_FLAGS) == {f.name for f in fields(PipelineConfig)}

    def test_interleave_flags_reach_synth_plan_and_run(self, tmp_path, capsys):
        """synth, plan and run all read --similarity-band and --n-subsequences:
        plan's plan.json equals run's byte for byte, and it matches the
        clusters synth rendered."""
        scene, plan = tmp_path / "scene", tmp_path / "plan.json"
        settings = ["--subset-size", "6", "--overlap", "2", "--similarity-band", "--n-subsequences", "2"]
        synth = ["synth", "--seed", "3", "--cameras", "12", "--landmarks", "400", "--out", str(scene)]
        assert main(synth + settings) == 0
        assert main(["plan", "--similarity", str(scene / "similarity.mrgt"), "--out", str(plan)] + settings) == 0
        assert main(["run", "--scene", str(scene), "--out", str(tmp_path / "out")] + settings) == 0
        assert plan.read_bytes() == (tmp_path / "out" / "plan.json").read_bytes()
        assert json.loads(plan.read_text())["n_subsequences"] == 2


class TestStagedArtifacts:
    def test_transforms_cover_all_clusters(self, staged):
        doc = json.loads(staged["transforms"].read_text())
        assert [t["cluster_id"] for t in doc["clusters"]] == [0, 1, 2]

    def test_tracks_nonempty(self, staged):
        tracks = read_tracks(staged["tracks"])
        assert len(tracks) > 0
        assert tracks.lengths.min() >= 2

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

    def test_malformed_cloud_header_exits_3(self, scene_dir, staged, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex abc\nend_header\n")
        code = main(
            [
                "eval",
                "--est", str(staged["refined"] / "poses_refined.json"),
                "--gt", str(scene_dir / "gt" / "poses.json"),
                "--pred-cloud", str(bad),
                "--gt-cloud", str(scene_dir / "gt" / "landmarks.ply"),
            ]
        )
        assert code == 3
        assert f"{bad}: malformed PLY header line 3" in capsys.readouterr().err

    def test_non_finite_cloud_vertex_exits_3(self, scene_dir, staged, tmp_path, capsys):
        cloud = read_ply(staged["refined"] / "merged.ply")
        cloud.points[7, 2] = np.nan
        bad = tmp_path / "bad.ply"
        write_ply(bad, cloud)
        code = main(
            [
                "eval",
                "--est", str(staged["refined"] / "poses_refined.json"),
                "--gt", str(scene_dir / "gt" / "poses.json"),
                "--pred-cloud", str(bad),
                "--gt-cloud", str(scene_dir / "gt" / "landmarks.ply"),
            ]
        )
        assert code == 3
        assert f"{bad}: PLY vertex 7 is not finite" in capsys.readouterr().err

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

    def test_synth_then_run(self, tmp_path, capsys):
        settings = ["--subset-size", "6", "--overlap", "2"]
        synth = ["synth", "--seed", "3", "--cameras", "12", "--landmarks", "400", "--out", str(tmp_path / "scene")]
        assert main(synth + settings) == 0
        code = main(["run", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "out")] + settings)
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

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"ba_lr": "abc"}, "config field 'ba_lr' must be float, got 'abc'"),
            ({"k": 2.5}, "config field 'k' must be int, got 2.5"),
            ({"similarity_constrained": "no"}, "config field 'similarity_constrained' must be bool, got 'no'"),
        ],
        ids=["float-field-string", "int-field-float", "bool-field-string"],
    )
    def test_config_value_of_wrong_type_exits_2(self, scene_dir, tmp_path, capsys, values, message):
        """A config-file value that does not fit its field's type is refused
        before any stage runs."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(
            ["run", "--scene", str(scene_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--lr", "nan", "initial_lr"), ("--lr", "inf", "initial_lr"), ("--tau", "nan", "tau_reproj")],
    )
    def test_non_finite_config_value_exits_2(self, scene_dir, tmp_path, capsys, flag, value, field):
        """A NaN or infinite setting is refused before any stage runs."""
        code = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "o"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{field} must be positive and finite" in err
        assert not (tmp_path / "o").exists()

    def test_data_error_exits_3(self, tmp_path, capsys):
        code = main(["run", "--scene", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "load stage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda recs: recs[1][2].__delitem__(slice(1, None)), "track 1 has 1 observations, needs >= 2"),
            (lambda recs: recs[1][2][1].__setitem__(0, recs[1][2][0][0]), "track 1 observes frame "),
            (lambda recs: recs[1].__setitem__(1, float("nan")), "track 1 confidence must be finite and >= 0"),
            (lambda recs: recs[1][0].__setitem__(2, float("inf")), "track 1 point must be finite"),
            (lambda recs: recs[1][2][0].__setitem__(2, float("nan")), "track 1 holds a non-finite pixel"),
        ],
        ids=["one-observation", "repeated-frame", "nan-confidence", "inf-point", "nan-pixel"],
    )
    def test_bad_track_file_exits_3(self, scene_dir, staged, tmp_path, capsys, edit, message):
        """A track file whose track 1 breaks a track invariant fails where it
        is read, naming the file and the track, and ba exits 3."""
        from scenemerge.errors import DataError

        tracks = read_tracks(staged["tracks"])
        records = [
            [tracks.points[i].tolist(), float(tracks.confidences[i]),
             [[int(tracks.frames[r]), *tracks.pixels[r].tolist()] for r in rows]]
            for i, rows in enumerate(tracks)
        ]
        edit(records)
        parts = [struct.pack("<Q", len(records))]
        for point, confidence, obs in records:
            parts.append(struct.pack("<3dd I", *point, confidence, len(obs)))
            parts += [struct.pack("<Idd", *o) for o in obs]
        path = tmp_path / "tracks.bin"
        path.write_bytes(b"".join(parts))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            read_tracks(path)
        code = main(
            [
                "ba",
                "--scene", str(scene_dir),
                "--tracks", str(path),
                "--transforms", str(staged["transforms"]),
                "--iters", "5",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_divergence_exits_4(self, scene_dir, staged, tmp_path, capsys):
        staged_tracks = read_tracks(staged["tracks"])
        heavy = replace(staged_tracks, confidences=np.full(len(staged_tracks), 1e200))
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

    @pytest.mark.parametrize(
        "field, value, message",
        [("cx", 1e6, "principal point (1000000.0, 24.0) outside image 64x48"), ("fx", -5, "focal lengths must be")],
        ids=["cx-outside-image", "fx-negative"],
    )
    def test_bad_cluster_camera_exits_3_naming_file_and_frame(self, scene_dir, tmp_path, capsys, field, value, message):
        import shutil

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        path = scene / "clusters" / "001" / "poses.json"
        doc = json.loads(path.read_text())
        doc["poses"][0][field] = value
        path.write_text(json.dumps(doc))
        code = main(["run", "--scene", str(scene), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"load stage: {path}: frame {doc['poses'][0]['frame_id']}: {message}" in err

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("confidence", lambda t: t * 0 - 1, "confidence map contains negative values"),
            ("depth", lambda t: t.reshape(-1), "depth map has shape (3072,), intrinsics need (48, 64)"),
            ("confidence", lambda t: t[:, :-1], "confidence map has shape (48, 63), intrinsics need (48, 64)"),
        ],
        ids=["negative-confidence", "flat-depth", "narrow-confidence"],
    )
    def test_bad_cluster_map_exits_3_naming_cluster_and_frame(self, scene_dir, tmp_path, capsys, kind, edit, message):
        import shutil

        from scenemerge.io_formats import read_manifest, read_tensor, write_tensor

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        entry = read_manifest(scene / "manifest.json").clusters[1]
        fid = entry.frame_ids[2]
        rel = (entry.depth_paths if kind == "depth" else entry.confidence_paths)[2]
        write_tensor(scene / rel, np.ascontiguousarray(edit(read_tensor(scene / rel))))
        code = main(["run", "--scene", str(scene), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"load stage: cluster 1 frame {fid}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("run", lambda m: m + np.triu(np.full_like(m, 0.01), 1), "similarity is not symmetric"),
            ("run", lambda m: np.where(np.eye(len(m)) > 0, m, np.nan), "similarity contains non-finite entries"),
            ("run", lambda m: np.eye(5), f"similarity matrix is 5x5 but the manifest lists {N_CAMERAS} images"),
            ("plan", lambda m: m - 0.5 * np.eye(len(m)), "similarity diagonal deviates from 1"),
        ],
        ids=["run-asymmetric", "run-nan", "run-5x5", "plan-diagonal"],
    )
    def test_bad_similarity_exits_3_naming_file(self, scene_dir, tmp_path, capsys, command, edit, message):
        import shutil

        from scenemerge.io_formats import read_tensor, write_tensor

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        path = scene / "similarity.mrgt"
        write_tensor(path, edit(read_tensor(path)).astype(np.float32))
        if command == "run":
            argv = ["run", "--scene", str(scene), "--out", str(tmp_path / "o")]
        else:
            argv = ["plan", "--similarity", str(path), "--subset-size", str(SUBSET_SIZE), "--overlap", str(OVERLAP)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err

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
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("fx", None),
                "read_poses",
                "poses[0]: field 'fx' has invalid value None",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("frame_id", "abc"),
                "read_poses",
                "poses[0]: field 'frame_id' has invalid value 'abc'",
            ),
            (
                "manifest.json",
                lambda doc: doc["images"][0].__setitem__("width", None),
                "read_manifest",
                "images[0]: field 'width' has invalid value None",
            ),
            (
                "manifest.json",
                lambda doc: doc["clusters"][0].__setitem__("frame_ids", None),
                "read_manifest",
                "clusters[0]: field 'frame_ids' has invalid value None",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"].append(dict(doc["poses"][0])),
                "read_poses",
                f"poses[{SUBSET_SIZE}]: repeats frame_id ",
            ),
            (
                "manifest.json",
                lambda doc: doc["clusters"][1].__setitem__("cluster_id", 0),
                "read_manifest",
                "clusters[1]: repeats cluster_id 0",
            ),
            (
                "manifest.json",
                lambda doc: doc.__setitem__("similarity_path", 5),
                "read_manifest",
                "field 'similarity_path' has invalid value 5",
            ),
            (
                "manifest.json",
                lambda doc: doc.__setitem__("similarity_path", ["x"]),
                "read_manifest",
                "field 'similarity_path' has invalid value ['x']",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("fx", float("inf")),
                "read_poses",
                "poses[0]: field 'fx' has invalid value inf",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0]["translation"].__setitem__(1, float("nan")),
                "read_poses",
                "poses[0]: field 'translation' has invalid value [",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0]["quat_wxyz"].__setitem__(0, float("nan")),
                "read_poses",
                "poses[0]: field 'quat_wxyz' has invalid value [nan, ",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("frame_id", float("inf")),
                "read_poses",
                "poses[0]: field 'frame_id' has invalid value inf",
            ),
            (
                "transforms.json",
                lambda doc: doc["clusters"][1]["translation"].__setitem__(0, float("nan")),
                "read_transforms",
                "clusters[1]: field 'translation' has invalid value [nan, ",
            ),
            (
                "transforms.json",
                lambda doc: doc["clusters"][1].__setitem__("scale", float("inf")),
                "read_transforms",
                "clusters[1]: field 'scale' has invalid value inf",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("frame_id", 3.7),
                "read_poses",
                "poses[0]: field 'frame_id' has invalid value 3.7",
            ),
            (
                "clusters/000/poses.json",
                lambda doc: doc["poses"][0].__setitem__("frame_id", True),
                "read_poses",
                "poses[0]: field 'frame_id' has invalid value True",
            ),
            (
                "manifest.json",
                lambda doc: doc["images"][0].__setitem__("height", True),
                "read_manifest",
                "images[0]: field 'height' has invalid value True",
            ),
            (
                "manifest.json",
                lambda doc: doc["clusters"][1].__setitem__("cluster_id", 1.5),
                "read_manifest",
                "clusters[1]: field 'cluster_id' has invalid value 1.5",
            ),
            (
                "manifest.json",
                lambda doc: doc["clusters"][0]["frame_ids"].__setitem__(0, 0.5),
                "read_manifest",
                "clusters[0]: field 'frame_ids' has invalid value [0.5, ",
            ),
            (
                "transforms.json",
                lambda doc: doc["clusters"][1].__setitem__("cluster_id", True),
                "read_transforms",
                "clusters[1]: field 'cluster_id' has invalid value True",
            ),
            (
                "plan.json",
                lambda doc: doc.__setitem__("subset_size", 9.5),
                "read_plan",
                "field 'subset_size' has invalid value 9.5",
            ),
            (
                "plan.json",
                lambda doc: doc["subsets"][0].__setitem__(0, 3.7),
                "read_plan",
                "field 'subsets' has invalid value [[3.7, ",
            ),
        ],
        ids=[
            "pose-without-fx",
            "image-without-width",
            "pose-as-list",
            "poses-as-object",
            "plan-without-n_subsequences",
            "pose-fx-null",
            "pose-frame_id-not-a-number",
            "image-width-null",
            "cluster-frame_ids-null",
            "pose-frame_id-repeated",
            "cluster_id-repeated",
            "similarity_path-number",
            "similarity_path-list",
            "pose-fx-infinite",
            "pose-translation-nan",
            "pose-quat-nan",
            "pose-frame_id-infinite",
            "transform-translation-nan",
            "transform-scale-infinite",
            "pose-frame_id-fraction",
            "pose-frame_id-bool",
            "image-height-bool",
            "cluster_id-fraction",
            "cluster-frame_ids-fraction",
            "transform-cluster_id-bool",
            "plan-subset_size-fraction",
            "plan-subsets-fraction",
        ],
    )
    def test_malformed_json_entry_exits_3(self, scene_dir, staged, tmp_path, capsys, rel, edit, reader, message):
        """A missing field, a non-object entry, a field value of the wrong
        type, a non-finite number, an integer field holding a fraction or a
        bool, or a repeated id is a SchemaViolationError naming the file, the
        entry and the field, and the CLI exits 3."""
        import shutil

        from scenemerge import io_formats
        from scenemerge.errors import SchemaViolationError

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        shutil.copy(staged["plan"], scene / "plan.json")
        shutil.copy(staged["transforms"], scene / "transforms.json")
        path = scene / rel
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolationError, match=re.escape(message)):
            getattr(io_formats, reader)(path)
        if rel in ("plan.json", "transforms.json"):
            argv = [
                "track",
                "--plan", str(scene / "plan.json"),
                "--clusters", str(scene),
                "--transforms", str(scene / "transforms.json"),
                "--out", str(tmp_path / "tracks.bin"),
            ]
        else:
            argv = ["run", "--scene", str(scene), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (
                lambda doc: doc.__setitem__("seed", "abc"),
                "SchemaViolationError",
                "field 'seed' has invalid value 'abc'",
            ),
            (
                lambda doc: doc.__setitem__("n_cameras", N_CAMERAS + 0.5),
                "SchemaViolationError",
                f"field 'n_cameras' has invalid value {N_CAMERAS + 0.5}",
            ),
            (lambda doc: doc.__setitem__("layout", 5), "SchemaViolationError", "field 'layout' has invalid value 5"),
            (lambda doc: doc.__setitem__("layout", "cube"), "SchemaViolationError", "unknown layout 'cube'"),
            (lambda doc: doc.__setitem__("n_landmarks", -5), "SchemaViolationError", "need at least 1 landmark"),
            (
                lambda doc: doc.__setitem__("perturb", [0.5]),
                "SchemaViolationError",
                "field 'perturb' has invalid value [0.5]",
            ),
            (
                lambda doc: doc["perturb"].__setitem__("match_pixel_noise_sigma", float("nan")),
                "SchemaViolationError",
                "perturb: field 'match_pixel_noise_sigma' has invalid value nan",
            ),
            (None, "DataCorruptionError", "invalid JSON in synthetic record file"),
        ],
        ids=[
            "seed-string",
            "n_cameras-fraction",
            "layout-number",
            "layout-unknown",
            "n_landmarks-negative",
            "perturb-list",
            "perturb-sigma-nan",
            "truncated",
        ],
    )
    def test_bad_synth_record_exits_3(self, scene_dir, tmp_path, capsys, edit, error, message):
        """gt/synth.json is read like every other JSON file: a truncated
        record, a value of the wrong type, or one scene generation rejects
        raises a DataError naming the file and the field, and run exits 3."""
        import shutil

        from scenemerge import errors
        from scenemerge.pipeline import matcher_from_scene_dir

        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        path = scene / "gt" / "synth.json"
        if edit is None:
            path.write_text(path.read_text()[:40])
        else:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
        with pytest.raises(getattr(errors, error), match=re.escape(message)):
            matcher_from_scene_dir(scene)
        argv = ["run", "--scene", str(scene), "--subset-size", str(SUBSET_SIZE), "--overlap", str(OVERLAP)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err

    def test_run_has_no_synth_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--synth", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --synth" in capsys.readouterr().err

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
