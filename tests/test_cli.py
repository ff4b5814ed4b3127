"""Command-line surface: outputs, formats, config files, and exit codes."""

import json

import pytest

from boatshape import NumericError
from boatshape.cli import main

SMALL_BOAT_FLAGS = [
    "--kind", "boat",
    "--eta0-lo", "1", "--eta0-hi", "6", "--a", "1.5", "--b", "0.9", "--y-c", "0.5",
]
LONG_BOAT_FLAGS = [
    "--kind", "boat",
    "--eta0-lo", "-1", "--eta0-hi", "20", "--a", "1", "--b", "0.4", "--y-c", "0.5",
]
SKEWED_BOAT_FLAGS = [
    "--kind", "boat",
    "--eta0-lo", "-1", "--eta0-hi", "20", "--a", "1", "--b", "0.4", "--y-c", "0.75",
]
SEGMENT_FLAGS = ["--kind", "segment", "--n0", "2", "--y-lo", "0.4", "--y-hi", "0.6"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_happy_phase_reported(self, capsys):
        code, out, _ = run(
            ["bounds", *LONG_BOAT_FLAGS, "--n", "10", "--s", "5"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "y_lo,y_hi,delta,tp_lo,tp_hi,phase"
        assert row.split(",")[-1] == "HappyBoth"

    def test_rectangle_prior_is_happy(self, capsys):
        # a prior's rectangle edges are flat in the posterior mean: a tie, not stuck
        flags = ["--kind", "rectangle", "--n-lo", "3", "--n-hi", "8",
                 "--y-lo", "0.25", "--y-hi", "0.75"]
        code, out, _ = run(["bounds", *flags, "--n", "0", "--s", "0"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[-1] == "HappyBoth"

    def test_segment_delta_independent_of_s(self, capsys):
        rows = []
        for s in ("2", "7"):
            code, out, _ = run(
                ["bounds", *SEGMENT_FLAGS, "--n", "10", "--s", s], capsys
            )
            assert code == 0
            rows.append(out.strip().splitlines()[1].split(","))
        assert rows[0][2] == rows[1][2]  # identical delta column

    def test_malformed_shape_exits_2(self, capsys):
        code, _, err = run(
            ["bounds", "--kind", "boat", "--eta0-lo", "1", "--eta0-hi", "6",
             "--a", "-0.5", "--b", "0.9", "--y-c", "0.5", "--n", "4", "--s", "2"],
            capsys,
        )
        assert code == 2
        assert "a > 0" in err

    def test_verify_emits_oracle_columns(self, capsys):
        code, out, _ = run(
            ["bounds", *SMALL_BOAT_FLAGS, "--n", "4", "--s", "2",
             "--verify", "--grid", "300", "--format", "json"],
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out)
        assert {"grid_y_lo", "grid_y_hi", "disagreement"} <= set(row)
        assert row["disagreement"] < 1e-3

    def test_missing_data_flags(self, capsys):
        code, _, err = run(["bounds", *SEGMENT_FLAGS], capsys)
        assert code == 2
        assert "--n" in err and "--s" in err


class TestSweep:
    def test_header_and_order(self, capsys):
        code, out, _ = run(
            ["sweep", *LONG_BOAT_FLAGS, "--n", "10", "--s-step", "1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,y_lo,y_hi,delta,phase,s_u,s_l"
        ss = [float(line.split(",")[0]) for line in lines[1:]]
        assert ss == sorted(ss) and len(ss) == 11

    def test_upper_bound_monotone_beyond_half(self, capsys):
        _, out, _ = run(
            ["sweep", *LONG_BOAT_FLAGS, "--n", "10", "--s-step", "0.25"], capsys
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        upper = [float(r[2]) for r in rows if float(r[0]) >= 5.0]
        assert all(b >= a for a, b in zip(upper, upper[1:]))

    def test_threshold_columns_constant_for_boat(self, capsys):
        _, out, _ = run(
            ["sweep", *LONG_BOAT_FLAGS, "--n", "10", "--s-step", "2.5"], capsys
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len({(r[5], r[6]) for r in rows}) == 1
        assert float(rows[0][5]) == pytest.approx(9.4, abs=1e-6)

    def test_threshold_columns_filled_for_rotated_boat(self, capsys):
        _, out, _ = run(
            ["sweep", *SKEWED_BOAT_FLAGS, "--n", "10", "--s-step", "2.5"], capsys
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert {(r[5], r[6]) for r in rows} == {("10", "8.52752609284")}

    def test_threshold_columns_blank_for_rectangle(self, capsys):
        _, out, _ = run(
            ["sweep", "--kind", "rectangle", "--n-lo", "1", "--n-hi", "4", "--y-lo", "0.3",
             "--y-hi", "0.7", "--n", "4", "--s-step", "2"],
            capsys,
        )
        assert all(row.endswith(",,") for row in out.strip().splitlines()[1:])

    def test_threshold_columns_blank_for_segment(self, capsys):
        _, out, _ = run(["sweep", *SEGMENT_FLAGS, "--n", "4", "--s-step", "1"], capsys)
        row = out.strip().splitlines()[1]
        assert row.endswith(",,")

    def test_empty_range(self, capsys):
        code, out, _ = run(
            ["sweep", *SEGMENT_FLAGS, "--n", "4", "--s-from", "3", "--s-to", "1"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "s,y_lo,y_hi,delta,phase,s_u,s_l"

    def test_bit_identical_reruns(self, capsys):
        argv = ["sweep", *SMALL_BOAT_FLAGS, "--n", "6", "--s-step", "0.5"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_json_rows(self, capsys):
        code, out, _ = run(
            ["sweep", *SEGMENT_FLAGS, "--n", "2", "--s-step", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["s"] for r in rows] == [0, 1, 2]
        assert set(rows[0]) == {"s", "y_lo", "y_hi", "delta", "phase", "s_u", "s_l"}


class TestCredibility:
    def test_boat_shorter_than_rectangle(self, capsys):
        _, out_boat, _ = run(
            ["credibility", *SMALL_BOAT_FLAGS, "--n", "4", "--s", "2", "--gamma", "0.5"],
            capsys,
        )
        lo_b, hi_b, _ = map(float, out_boat.strip().splitlines()[1].split(","))
        _, out_rect, _ = run(
            ["credibility", "--kind", "rectangle", "--n-lo", "3", "--n-hi", "8",
             "--y-lo", "0.2492245431689006", "--y-hi", "0.7507754568310994",
             "--n", "4", "--s", "2", "--gamma", "0.5"],
            capsys,
        )
        lo_r, hi_r, _ = map(float, out_rect.strip().splitlines()[1].split(","))
        assert hi_b - lo_b < hi_r - lo_r

    def test_gamma_required(self, capsys):
        code, _, err = run(
            ["credibility", *SEGMENT_FLAGS, "--n", "2", "--s", "1"], capsys
        )
        assert code == 2
        assert "--gamma" in err


class TestThresholdsAndTransform:
    def test_thresholds_long_boat(self, capsys):
        code, out, _ = run(
            ["thresholds", *LONG_BOAT_FLAGS, "--n", "10", "--format", "json"], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["happy_hi"] == pytest.approx(5.9969, abs=1e-3)
        assert row["happy_lo"] == pytest.approx(4.0031, abs=1e-3)
        assert row["upper_slope"] == pytest.approx(1.0 / 11.0, abs=1e-9)

    def test_thresholds_rotated_boat(self, capsys):
        code, out, _ = run(
            ["thresholds", *SKEWED_BOAT_FLAGS, "--n", "10", "--format", "json"], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert (row["s_u"], row["s_l"]) == pytest.approx((10.0, 8.5275), abs=1e-4)
        # not the mirror window [n - t, t] of an axis boat
        assert (row["happy_lo"], row["happy_hi"]) == pytest.approx((6.4724, 8.5275), abs=1e-4)

    def test_thresholds_need_boat(self, capsys):
        code, _, err = run(["thresholds", *SEGMENT_FLAGS, "--n", "4"], capsys)
        assert code == 2
        assert "boat" in err

    def test_transform_canonical_to_eta(self, capsys):
        code, out, _ = run(
            ["transform", "--n0", "2", "--y0", "0.5", "--format", "json"], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert (row["eta0"], row["eta1"]) == (0, 0)

    def test_transform_with_update(self, capsys):
        code, out, _ = run(
            ["transform", "--eta0", "1", "--eta1", "0", "--n", "4", "--s", "3",
             "--format", "json"],
            capsys,
        )
        (row,) = json.loads(out)
        assert (row["eta0"], row["eta1"]) == (5, 1)
        assert row["n0"] == 7

    def test_transform_requires_one_chart(self, capsys):
        code, _, err = run(["transform", "--n0", "2", "--eta0", "1"], capsys)
        assert code == 2


class TestValidateCommand:
    def test_valid_boat(self, capsys):
        code, out, _ = run(["validate", *LONG_BOAT_FLAGS], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("true")

    def test_invalid_boat_exits_2(self, capsys):
        code, out, _ = run(
            ["validate", "--kind", "boat", "--eta0-lo", "-1.9", "--eta0-hi", "5",
             "--a", "10", "--b", "0.5", "--y-c", "0.5"],
            capsys,
        )
        assert code == 2
        assert out.splitlines()[1].startswith("false")


class TestConfigAndOutput:
    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "shape.cfg"
        cfg.write_text(
            "# small boat demo\n"
            "kind = boat\n"
            "eta0_lo = 1\n"
            "eta0_hi = 6\n"
            "a = 1.5\n"
            "b = 0.9\n"
            "y_c = 0.5\n"
        )
        _, from_cfg, _ = run(
            ["bounds", "--shape-config", str(cfg), "--n", "4", "--s", "2"], capsys
        )
        _, inline, _ = run(["bounds", *SMALL_BOAT_FLAGS, "--n", "4", "--s", "2"], capsys)
        assert from_cfg == inline

    def test_config_and_inline_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "shape.cfg"
        cfg.write_text("kind = segment\nn0 = 2\ny_lo = 0.4\ny_hi = 0.6\n")
        code, _, err = run(
            ["bounds", "--shape-config", str(cfg), "--kind", "segment",
             "--n0", "2", "--y-lo", "0.4", "--y-hi", "0.6", "--n", "2", "--s", "1"],
            capsys,
        )
        assert code == 2
        assert "not both" in err

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "shape.cfg"
        cfg.write_text("kind boat\n")
        code, _, err = run(["bounds", "--shape-config", str(cfg), "--n", "1", "--s", "0"], capsys)
        assert code == 2
        assert "key = value" in err

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, stdout, _ = run(
            ["sweep", *SEGMENT_FLAGS, "--n", "2", "--s-step", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert stdout == ""
        assert out_path.read_text().startswith("s,y_lo,y_hi,delta,phase")

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(["bounds", *SMALL_BOAT_FLAGS, "--n", "4", "--s", "4"], capsys)
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "0.543055291234"

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        import boatshape.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli_mod, "shadow", boom)
        code, _, err = run(["bounds", *SEGMENT_FLAGS, "--n", "2", "--s", "1"], capsys)
        assert code == 3
        assert "synthetic failure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", *SEGMENT_FLAGS, "--n", "4", "--s-step", "nan"],
            ["thresholds", *LONG_BOAT_FLAGS, "--n", "inf"],
            ["bounds", *SEGMENT_FLAGS, "--n", "4", "--s", "2", "--shift1=-inf"],
        ],
    )
    def test_non_finite_flag_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
