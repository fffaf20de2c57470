import json
import warnings

import numpy as np
import pytest

from fdnet.cli import RunConfig, main
from fdnet.data import load_csv
from fdnet.models import build_model
from fdnet.tensor import Tensor, no_grad
from fdnet.training import load_checkpoint


def never_train(*args, **kwargs):
    pytest.fail("train ran")


def write_sine_csv(path, n=600, v_noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    a = np.sin(2 * np.pi * t / 24.0) + rng.normal(0, v_noise, n)
    ot = np.cos(2 * np.pi * t / 24.0) * 2.0 + 5.0 + rng.normal(0, v_noise, n)
    with open(path, "w") as fh:
        fh.write("date,A,OT\n")
        for i in range(n):
            fh.write(f"2020-01-01 {i:02d},{float(a[i])!r},{float(ot[i])!r}\n")
    return path


TRAIN_FLAGS = [
    "--l-in", "16", "--l-out", "4", "--f", "2", "--n-layers", "2",
    "--embed-dim", "4", "--max-epochs", "2", "--patience", "2",
    "--lr", "0.01", "--seed", "7",
]


@pytest.fixture()
def dataset(tmp_path):
    return str(write_sine_csv(tmp_path / "series.csv"))


@pytest.fixture()
def trained(tmp_path, dataset):
    out = tmp_path / "run"
    code = main(["train", "--data", dataset, "--target", "OT",
                 "--out-dir", str(out), *TRAIN_FLAGS])
    assert code == 0
    return out


class TestConfigFile:
    def test_file_values_then_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("l_in=32  # comment\nf=2\nlr=0.05\n")
        from fdnet.cli import RunConfig
        cfg = RunConfig()
        cfg.load_file(str(cfg_file))
        assert (cfg.l_in, cfg.f, cfg.lr) == (32, 2, 0.05)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_key=3\n")
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_utf8_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfl_in=32\nf=2\n")
        cfg = RunConfig()
        cfg.load_file(str(cfg_file))
        assert (cfg.l_in, cfg.f) == (32, 2)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        cfg = RunConfig(data=str(tmp_path / "run#2" / "series.csv"), target="O#T")
        cfg_file = tmp_path / "config.txt"
        cfg_file.write_text(cfg.snapshot())
        again = RunConfig()
        again.load_file(str(cfg_file))
        assert again == cfg

    @pytest.mark.parametrize("folder", ["run #2", "run\n2"])
    def test_train_refuses_a_config_whose_snapshot_would_not_reload(self, tmp_path, capsys,
                                                                     monkeypatch, folder):
        (tmp_path / folder).mkdir()
        data = str(write_sine_csv(tmp_path / folder / "series.csv"))
        monkeypatch.setattr("fdnet.cli.train", never_train)
        out = tmp_path / "run"
        assert main(["train", "--data", data, "--out-dir", str(out), *TRAIN_FLAGS]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "data" in err[0]
        assert not out.exists()

    def test_missing_equals_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just a line\n")
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_exchange_preset(self, capsys):
        assert main(["params", "--preset", "exchange"]) == 0
        out = capsys.readouterr().out
        # f=1 single branch: embedding = 2*8 = 16
        assert "embedding=16" in out


class TestBadInput:
    @pytest.mark.parametrize("config_text, flags", [
        ("l_in=abc\n", []),
        ("", ["--split", "ratio:a,b,c"]),
        ("", ["--split", "rows:5"]),
    ])
    def test_malformed_strings_exit_with_one_line(self, tmp_path, dataset, capsys,
                                                  config_text, flags):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config_text)
        assert main(["train", "--data", dataset, "--config", str(cfg_file), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("argv, fragment", [
        (["train", "--embed-dim", "0"], "embed_dim"),
        (["train", "--heads", "0"], "heads"),
        (["train", "--l-out", "0"], "l_out"),
        (["train", "--dropout", "1.0"], "dropout"),
        (["train", "--dropout", "-0.1"], "dropout"),
        (["train", "--variant", "bogus"], "variant"),
        (["evaluate", "--split-part", "bogus"], "split part"),
        (["evaluate", "--m", "0"], "periodicity"),
        (["train", "--seed", "-1"], "seed"),
        (["params", "--seed", "-1"], "seed"),
        (["train", "--lr", "nan"], "learning rate"),
        (["train", "--lr", "inf"], "learning rate"),
    ])
    def test_bad_value_fails_before_data_loads(self, tmp_path, capsys, argv, fragment):
        absent = str(tmp_path / "absent")
        assert main([*argv, "--data", absent, "--checkpoint", absent]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]

    @pytest.mark.parametrize("case", ["data_is_dir", "config_is_dir", "out_dir_is_file",
                                      "csv_not_utf8", "csv_cell_too_long", "csv_ragged_row",
                                      "csv_bad_cell", "csv_non_finite_cell",
                                      "csv_duplicate_column", "config_not_utf8"])
    def test_unreadable_file_exits_with_one_line_naming_it(self, tmp_path, dataset, capsys,
                                                           case):
        bad = tmp_path / "bad.txt"
        bodies = {"csv_not_utf8": b"A,OT\n1,\xff\n",
                  "csv_cell_too_long": b"A,OT\n1," + b"9" * 200_000 + b"\n",
                  "csv_ragged_row": b"A,OT\n1,2\n3,4,5\n",
                  "csv_bad_cell": b"A,OT\n1,abc\n",
                  "csv_non_finite_cell": b"A,OT\n1,inf\n",
                  "csv_duplicate_column": b"date,OT,OT\nd0,1,2\n"}
        bad.write_bytes(bodies.get(case, b"l_in=\xff\n"))
        named, argv = {
            "data_is_dir": (tmp_path, ["kstest", "--data", str(tmp_path)]),
            "config_is_dir": (tmp_path, ["params", "--config", str(tmp_path)]),
            "out_dir_is_file": (dataset, ["kstest", "--data", dataset, "--windows", "5",
                                          "--window-len", "48", "--out-dir", dataset]),
            "csv_not_utf8": (bad, ["kstest", "--data", str(bad)]),
            "csv_cell_too_long": (bad, ["kstest", "--data", str(bad)]),
            "csv_ragged_row": (bad, ["kstest", "--data", str(bad)]),
            "csv_bad_cell": (bad, ["kstest", "--data", str(bad)]),
            "csv_non_finite_cell": (bad, ["kstest", "--data", str(bad)]),
            "csv_duplicate_column": (bad, ["kstest", "--data", str(bad)]),
            "config_not_utf8": (bad, ["params", "--config", str(bad)]),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(named) in err[0]


class TestTrainCommand:
    def test_smoke_produces_artifacts(self, trained):
        assert (trained / "checkpoint.ckpt").exists()
        assert (trained / "history.csv").exists()
        assert (trained / "config.txt").exists()
        lines = (trained / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_mse,val_mse"
        assert len(lines) == 3

    def test_max_epochs_below_default_patience(self, tmp_path, dataset):
        cut = TRAIN_FLAGS.index("--patience")
        flags = TRAIN_FLAGS[:cut] + TRAIN_FLAGS[cut + 2:]
        assert RunConfig().patience > 2 and "--max-epochs" in flags
        out = tmp_path / "run"
        assert main(["train", "--data", dataset, "--target", "OT",
                     "--out-dir", str(out), *flags]) == 0
        assert len((out / "history.csv").read_text().strip().splitlines()) == 3

    def test_unusable_out_dir_fails_before_training(self, tmp_path, dataset, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("fdnet.cli.train", never_train)
        assert main(["train", "--data", dataset, "--out-dir", dataset, *TRAIN_FLAGS]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and dataset in err[0]

    def test_missing_dataset_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = main(["train", "--data", missing, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_same_seed_identical_history_bytes(self, tmp_path, dataset):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["train", "--data", dataset, "--target", "OT",
                         "--out-dir", str(out), *TRAIN_FLAGS]) == 0
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_resolved_snapshot_reruns_identically(self, tmp_path, dataset, trained):
        out2 = tmp_path / "rerun"
        code = main(["train", "--config", str(trained / "config.txt"),
                     "--out-dir", str(out2)])
        assert code == 0
        assert (out2 / "history.csv").read_bytes() == (trained / "history.csv").read_bytes()

    @pytest.mark.parametrize("split, message", [
        # the one step's loss is finite; the update after it is not
        ("rows:55,110", "non-finite eval MSE after epoch 0: train nan, val nan"),
        ("ratio:0.7,0.1,0.2", "non-finite loss at epoch 0, step 1"),
    ])
    def test_diverged_run_exits_with_one_line(self, tmp_path, dataset, capsys, split, message):
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", dataset, "--out-dir", str(out), "--l-in", "32",
                         "--l-out", "8", "--f", "2", "--n-layers", "2", "--embed-dim", "4",
                         "--max-epochs", "1", "--lr", "1e300", "--split", split])
        err = capsys.readouterr().err
        assert code == 1 and caught == []
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message}"]
        assert not (out / "checkpoint.ckpt").exists()


class TestEvaluateCommand:
    def test_train_split_matches_history_final_row(self, tmp_path, dataset, trained, capsys):
        code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--split-part", "train",
                     "--out-dir", str(tmp_path / "eval"), *TRAIN_FLAGS])
        assert code == 0
        printed = capsys.readouterr().out
        shown_mse = float(printed.split("mse=")[1].split()[0])
        final_row = (trained / "history.csv").read_text().strip().splitlines()[-1]
        history_train_mse = float(final_row.split(",")[2])
        assert abs(shown_mse - history_train_mse) < 1e-10

    def test_writes_metrics_files(self, tmp_path, dataset, trained):
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--out-dir", str(out),
                     "--m", "8"])
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["periodicity"] == 8
        assert set(report["aggregate"]) == {"mse", "mae", "smape", "mase", "owa"}
        csv_lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4 + 2  # header + 4 horizons + aggregate row

    def test_wrong_variate_count_rejected(self, tmp_path, trained, capsys):
        other = tmp_path / "three.csv"
        rng = np.random.default_rng(3)
        with open(other, "w") as fh:
            fh.write("A,B,OT\n")
            for _ in range(100):
                fh.write(",".join(repr(float(x)) for x in rng.normal(size=3)) + "\n")
        code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", str(other), "--target", "OT",
                     "--out-dir", str(tmp_path / "e2")])
        assert code == 1
        assert "variates" in capsys.readouterr().err


class TestPredictCommand:
    def test_forecast_shape_and_headers(self, tmp_path, dataset, trained):
        out = tmp_path / "pred"
        code = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--at", "100",
                     "--out-dir", str(out)])
        assert code == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        assert lines[0] == "A,OT"
        assert len(lines) == 1 + 4
        assert all(len(line.split(",")) == 2 for line in lines[1:])

    def test_deterministic_across_invocations(self, tmp_path, dataset, trained):
        outs = []
        for tag in ("p1", "p2"):
            out = tmp_path / tag
            assert main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                         "--data", dataset, "--target", "OT", "--at", "42",
                         "--out-dir", str(out)]) == 0
            outs.append((out / "forecast.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_forecast_is_inverse_standardized(self, tmp_path, dataset, trained):
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--at", "10",
                     "--out-dir", str(out)]) == 0
        rows = (out / "forecast.csv").read_text().strip().splitlines()[1:]
        forecast = np.array([[float(c) for c in row.split(",")] for row in rows])
        ckpt = load_checkpoint(trained / "checkpoint.ckpt")
        from fdnet.data import load_csv
        frame = load_csv(dataset, "OT")
        seg = ckpt.standardizer.transform_values(frame.values[10 : 10 + 16])
        from fdnet.tensor import Tensor, no_grad
        with no_grad():
            pred = ckpt.model.forward(Tensor(seg[None, None]), "eval")[0].data[0]
        assert np.array_equal(forecast, ckpt.standardizer.inverse_values(pred))

    def test_out_of_range_start(self, tmp_path, dataset, trained, capsys):
        code = main(["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--at", "10000",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestKstestCommand:
    def test_defaults_match_audit_protocol(self):
        cfg = RunConfig()
        assert cfg.windows == 1000
        assert cfg.window_len == 96
        assert cfg.alpha_ks == 0.05

    def test_shifted_series_high_rr(self, tmp_path, capsys):
        path = tmp_path / "trend.csv"
        t = np.arange(3000, dtype=float)
        vals = 0.01 * t + np.random.default_rng(0).normal(0, 0.05, 3000)
        with open(path, "w") as fh:
            fh.write("OT\n")
            for v in vals:
                fh.write(f"{float(v)!r}\n")
        code = main(["kstest", "--data", str(path), "--target", "OT",
                     "--windows", "400", "--seed", "3",
                     "--out-dir", str(tmp_path / "ks")])
        assert code == 0
        rr = float(capsys.readouterr().out.split("rr=")[1].split()[0])
        assert rr > 0.9

    @pytest.mark.parametrize("flags, fragment", [
        (["--seed", "-1"], "seed"),
        (["--window-len", "-3"], "window_len"),
        (["--window-len", "0"], "window_len"),
    ])
    def test_bad_value_exits_with_one_line(self, tmp_path, dataset, capsys, flags, fragment):
        assert main(["kstest", "--data", dataset, "--target", "OT",
                     "--out-dir", str(tmp_path / "ks"), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]

    def test_seeded_determinism_bytes(self, tmp_path, dataset):
        outs = []
        for tag in ("k1", "k2"):
            out = tmp_path / tag
            assert main(["kstest", "--data", dataset, "--target", "OT",
                         "--windows", "50", "--window-len", "48", "--seed", "5",
                         "--out-dir", str(out)]) == 0
            outs.append((out / "ks_report.csv").read_bytes())
        assert outs[0] == outs[1]


class TestGradcheckCommand:
    def test_clean_build_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_reports_every_registered_op(self, capsys):
        main(["gradcheck"])
        out = capsys.readouterr().out
        from fdnet.tensor import DIFFERENTIABLE_OPS
        covered_line = [l for l in out.splitlines() if l.startswith("ops covered:")][0]
        for op in DIFFERENTIABLE_OPS:
            assert op in covered_line

    def test_corrupted_backward_detected_and_named(self, capsys):
        code = main(["gradcheck", "--corrupt-op", "gelu"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL gelu" in captured.out
        assert "gelu" in captured.err

    def test_unknown_corrupt_op_exits_with_one_line(self, capsys):
        assert main(["gradcheck", "--corrupt-op", "bogus"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bogus" in err[0]


class TestParamsCommand:
    def test_delta_is_head_only(self, capsys):
        assert main(["params", "--l-out", "96"]) == 0
        out = capsys.readouterr().out
        delta_line = [l for l in out.splitlines() if l.startswith("delta")][0]
        parts = dict(kv.split("=") for kv in delta_line.split()[1:])
        # delta = sum_i D*len_i*624 + 624*f for the default config
        expected = sum(8 * l * 624 for l in (336, 168, 84, 42, 42)) + 624 * 5
        assert int(parts["total"]) == expected
        assert int(parts["head"]) == expected
        assert int(parts["non_head"]) == 0

    def test_f1_matches_enumeration(self, capsys):
        assert main(["params", "--f", "1", "--l-in", "32", "--l-out", "8",
                     "--n-layers", "1", "--embed-dim", "8"]) == 0
        out = capsys.readouterr().out
        first = [l for l in out.splitlines() if l.startswith("horizon=8 ")][0]
        total = int(first.split("total=")[1])
        model = build_model("fdnet", 32, 8, 1, 0.5, 1, 8, seed=4321)
        assert total == sum(p.size for p in model.parameters())
        assert total > 0

    def test_unallocatable_model_exits_with_one_line(self, capsys):
        # 10**15 steps is past a 47-bit address space, so the allocation is
        # refused before any page is touched
        assert main(["params", "--l-in", str(10**15)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestExportReprCommand:
    def test_rows_partition_by_branch(self, tmp_path, dataset, trained):
        out = tmp_path / "repr"
        code = main(["export-repr", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--at", "0",
                     "--out-dir", str(out)])
        assert code == 0
        lines = (out / "representations.csv").read_text().strip().splitlines()
        assert lines[0] == "branch,time_index,f0,f1,f2,f3"
        ckpt = load_checkpoint(trained / "checkpoint.ckpt")
        expected_rows = sum(b.out_length for b in ckpt.model.branches)
        assert len(lines) - 1 == expected_rows
        branches = [int(line.split(",")[0]) for line in lines[1:]]
        assert sorted(set(branches)) == [0, 1]

    @pytest.mark.parametrize("variant", ["fdnet", "funet"])
    def test_features_match_a_whole_window_run(self, tmp_path, dataset, variant):
        # the export runs the target variate (OT, the second) alone; its
        # features match the target's column of a whole-window run up to
        # GEMM rounding
        run, out = tmp_path / "run", tmp_path / "repr"
        assert main(["train", "--data", dataset, "--target", "OT", "--out-dir", str(run),
                     "--variant", variant, *TRAIN_FLAGS]) == 0
        assert main(["export-repr", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", dataset, "--target", "OT", "--at", "3",
                     "--out-dir", str(out)]) == 0
        rows = np.loadtxt(out / "representations.csv", delimiter=",", skiprows=1, ndmin=2)
        ckpt = load_checkpoint(run / "checkpoint.ckpt")
        frame = load_csv(dataset, "OT")
        window = ckpt.standardizer.transform_values(frame.values[3 : 3 + ckpt.config["l_in"]])
        with no_grad():
            reprs = ckpt.model.representations(Tensor(window[np.newaxis, np.newaxis]))
        expected = np.concatenate([rep.data[0, :, :, 1].T for rep in reprs])
        np.testing.assert_array_equal(rows[:, :2], [
            (b, t) for b, rep in enumerate(reprs) for t in range(rep.shape[2])])
        np.testing.assert_allclose(rows[:, 2:], expected, rtol=1e-12, atol=0)

    def test_deterministic(self, tmp_path, dataset, trained):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert main(["export-repr", "--checkpoint", str(trained / "checkpoint.ckpt"),
                         "--data", dataset, "--target", "OT", "--at", "5",
                         "--out-dir", str(out)]) == 0
            outs.append((out / "representations.csv").read_bytes())
        assert outs[0] == outs[1]
