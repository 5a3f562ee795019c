"""Command-line interface: subcommands, formats, exit codes."""

import csv
import io
import json
import math
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multitails.cli import _RNGTEST_KERNELS, _read_binned_counts, main
from multitails.errors import InputExhaustedError
from multitails.kernels import g_second_moment_aggregates, moment_summary, parse_kernel_spec
from multitails.model import uniform_model
from multitails import oracle
from multitails.oracle import enumerate_distribution
from multitails.tails import correction_coeffs, tail_probability, zone_bound


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestMoments:
    def test_chi_square_json(self, capsys):
        payload = run_json(
            capsys, "moments", "--model", "uniform", "--n", "1024",
            "--cells", "512", "--kernel", "pds:1",
        )
        assert payload["regime"] == "sparse"
        assert payload["uniform"] is True
        assert payload["summary"]["mean"] == 512.0
        assert payload["summary"]["var"] == pytest.approx(1024.0, rel=1e-12)
        assert payload["zone"]["rule"] == "chi-square"

    def test_pds_reports_both_frames(self, capsys):
        payload = run_json(
            capsys, "moments", "--model", "uniform", "--n", "1024",
            "--cells", "512", "--kernel", "pds:1",
        )
        frames = payload["frames"]
        assert frames["power"]["mean"] == pytest.approx(512.0 + 1024.0, rel=1e-12)
        assert frames["power"]["var"] == pytest.approx(1024.0, rel=1e-10)
        assert frames["divergence"]["mean"] == pytest.approx(512.0, rel=1e-10)

    def test_count_kernel_has_no_frames(self, capsys):
        payload = run_json(
            capsys, "moments", "--model", "uniform", "--n", "24",
            "--cells", "8", "--kernel", "count:0",
        )
        assert "frames" not in payload

    def test_unreachable_frame_reported_not_fatal(self, capsys):
        # the log-kernel closed form exists only in the bare frame on a
        # uniform very sparse model; the other frames carry an error entry
        payload = run_json(
            capsys, "moments", "--model", "uniform", "--n", "8",
            "--cells", "400", "--kernel", "pds:0", "--method", "closed_form",
        )
        assert payload["summary"]["frame"] == "bare"
        assert payload["summary"]["approximate"] is True
        assert "error" in payload["frames"]["power"]
        assert "error" in payload["frames"]["divergence"]

    def test_zone_error_reported_not_fatal(self, capsys, tmp_path):
        levels = tmp_path / "levels.csv"
        levels.write_text("1,1\n")
        payload = run_json(
            capsys, "moments", "--model", "uniform", "--n", "20000",
            "--cells", "1000", "--kernel", f"unfilled:{levels}",
        )
        assert "error" in payload["zone"]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--model", "uniform", "--n", "1024",
            "--cells", "512", "--kernel", "pds:1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["var"]) == pytest.approx(1024.0, rel=1e-12)
        assert rows[0]["regime"] == "sparse"

    def test_powerlaw_and_perturbed_families(self, capsys, tmp_path):
        payload = run_json(
            capsys, "moments", "--model", "powerlaw", "--n", "100",
            "--cells", "4", "--alpha", "0.5", "--kernel", "pds:1",
        )
        assert payload["model"]["family"] == "power_law"
        ell = tmp_path / "ell.txt"
        ell.write_text("1\n-1\n1\n-1\n")
        payload = run_json(
            capsys, "moments", "--model", "perturbed", "--n", "100",
            "--cells", "4", "--delta", "0.1", "--ell-file", str(ell),
            "--kernel", "pds:1",
        )
        assert payload["model"]["family"] == "perturbed_uniform"

    def test_file_model(self, capsys, tmp_path):
        probs = tmp_path / "probs.txt"
        probs.write_text("0.1\n0.2\n0.3\n0.4\n")
        payload = run_json(
            capsys, "moments", "--model", "file", "--n", "100",
            "--probs-file", str(probs), "--kernel", "pds:1",
        )
        assert payload["model"]["cells"] == 4
        assert payload["summary"]["mean"] == pytest.approx(4.0, rel=1e-9)


class TestTail:
    def test_grid_flattening(self, capsys):
        payload = run_json(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "0.5,1", "--x", "2",
        )
        assert [row["x"] for row in payload["tails"]] == [0.5, 1.0, 2.0]

    def test_first_order_golden(self, capsys):
        payload = run_json(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "0,1", "--order", "0",
        )
        rows = payload["tails"]
        assert rows[0]["p_corrected"] == pytest.approx(0.5, rel=1e-12)
        assert rows[1]["p_corrected"] == pytest.approx(0.15865525393145707, rel=1e-10)
        assert rows[1]["p_corrected"] == rows[1]["p_first_order"]

    def test_both_sides(self, capsys):
        payload = run_json(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "1", "--side", "both",
        )
        sides = [row["side"] for row in payload["tails"]]
        assert sides == ["upper", "lower"]
        up, low = payload["tails"]
        assert up["correction_exponent"] == pytest.approx(
            -low["correction_exponent"], rel=1e-12
        )

    def test_out_of_zone_is_flagged_not_fatal(self, capsys):
        payload = run_json(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "1,2.5",
        )
        rows = payload["tails"]
        assert rows[0]["in_zone"] is True
        assert rows[1]["in_zone"] is False

    @pytest.mark.parametrize(
        "argv, rows, expected",
        [
            (["tail"], "tails", {"p_corrected": 1.0, "clamped": True}),
            (["simulate", "--trials", "1000"], "results", {"p_corrected": 1.0}),
        ],
        ids=["tail", "simulate"],
    )
    def test_overflowing_correction_clamps(self, capsys, argv, rows, expected):
        # exp of the correction exponent overflows a float at x = 1
        payload = run_json(
            capsys, *argv, "--model", "uniform", "--n", "64", "--cells", "32",
            "--kernel", "count:40", "--x", "1",
        )
        (row,) = payload[rows]
        assert {k: row[k] for k in expected} == expected

    def test_order_two(self, capsys):
        payload = run_json(
            capsys, "tail", "--model", "uniform", "--n", "64", "--cells", "16",
            "--kernel", "pds:1", "--x", "1", "--order", "2",
        )
        assert payload["mu1"] != 0.0
        assert payload["order"] == 2

    def test_order_two_refused_on_approximate_summary(self, capsys):
        # very sparse closed forms carry no third/fourth moment sums, so no
        # order-2 aggregates either
        code, _, err = run(
            capsys, "tail", "--model", "uniform", "--n", "8", "--cells", "400",
            "--kernel", "pds:0.5", "--method", "closed_form", "--x", "1", "--order", "2",
        )
        assert code == 2
        assert err == (
            "error: correction coefficients need third/fourth moment sums; "
            "approximate closed-form summaries do not carry them\n"
        )

    def test_low_rate_chi_square_zone_serializes(self, capsys, tmp_path):
        # smallest rate 1/2 takes the low-rate chi-square zone, whose
        # arithmetic runs on numpy scalars; the JSON must still be plain
        ell = tmp_path / "ell.txt"
        ell.write_text("".join(f"{v}\n" for v in [-1.0, 1.0] * 50))
        payload = run_json(
            capsys, "tail", "--model", "perturbed", "--n", "100", "--cells", "100",
            "--delta", "0.5", "--ell-file", str(ell), "--kernel", "pds:1",
            "--frame", "divergence", "--x", "0.5,3", "--side", "both",
        )
        assert payload["zone"]["rule"] == "chi-square-low-rate"
        assert [row["in_zone"] for row in payload["tails"]] == [True, True, False, False]

    def test_missing_x(self, capsys):
        code, _, err = run(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1",
        )
        assert code == 2
        assert "error:" in err

    def test_bad_x_entry(self, capsys):
        code, _, err = run(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "1,abc",
        )
        assert code == 2

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "tail", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:1", "--x", "0.5,1,1.5", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {"x", "side", "p_corrected", "in_zone", "rule"} <= set(rows[0])


class TestEnumerate:
    def test_atoms_dump(self, capsys):
        payload = run_json(
            capsys, "enumerate", "--model", "uniform", "--n", "2", "--cells", "2",
            "--kernel", "pds:1", "--atoms",
        )
        assert payload["atom_count"] == 2
        atoms = payload["atoms"]
        assert [a["value"] for a in atoms] == [0.0, 2.0]
        assert atoms[0]["prob"] == pytest.approx(0.5, rel=1e-12)

    def test_mean_identity(self, capsys):
        payload = run_json(
            capsys, "enumerate", "--model", "uniform", "--n", "4", "--cells", "3",
            "--kernel", "pds:1",
        )
        assert payload["mean"] == pytest.approx(2.0, abs=1e-12)

    def test_exact_tails_at_x(self, capsys):
        payload = run_json(
            capsys, "enumerate", "--model", "uniform", "--n", "3", "--cells", "2",
            "--kernel", "count:0", "--x", "0,1",
        )
        rows = payload["tails"]
        # empty-cell count is 1 with probability 1/4
        assert rows[0]["p_upper_exact"] == pytest.approx(0.25, rel=1e-12)

    def test_large_model_refused(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--model", "uniform", "--n", "1024",
            "--cells", "512", "--kernel", "pds:1",
        )
        assert code == 3
        assert "error:" in err

    def test_random_kernel_refused(self, capsys, tmp_path):
        levels = tmp_path / "levels.csv"
        levels.write_text("1,0.7\n2,0.3\n")
        code, _, _ = run(
            capsys, "enumerate", "--model", "uniform", "--n", "3", "--cells", "2",
            "--kernel", f"unfilled:{levels}",
        )
        assert code == 3

    def test_frame_outside_pds_refused(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--model", "uniform", "--n", "4", "--cells", "3",
            "--kernel", "count:0", "--frame", "power",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestSimulate:
    def test_pinned_run(self, capsys):
        payload = run_json(
            capsys, "simulate", "--model", "uniform", "--n", "16", "--cells", "8",
            "--kernel", "pds:1", "--x", "0.5,1.5", "--trials", "1000",
            "--seed", "11",
        )
        rows = payload["results"]
        assert rows[0]["p_hat"] == pytest.approx(0.148, rel=1e-12)
        assert rows[1]["p_hat"] == pytest.approx(0.035, rel=1e-12)
        assert all(math.isfinite(r["z_discrepancy"]) for r in rows)
        assert payload["trials"] == 1000

    def test_negative_x_mc_only(self, capsys):
        # negative grids need the equals form, or argparse reads the
        # leading dash as an option
        payload = run_json(
            capsys, "simulate", "--model", "uniform", "--n", "16", "--cells", "8",
            "--kernel", "pds:1", "--x=-1,1", "--trials", "1000", "--seed", "3",
        )
        neg, pos = payload["results"]
        assert neg["p_hat"] > pos["p_hat"]
        assert math.isnan(neg["p_corrected"])
        assert neg["in_zone"] is False

    def test_trials_floor(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--model", "uniform", "--n", "16", "--cells", "8",
            "--kernel", "pds:1", "--x", "1", "--trials", "10",
        )
        assert code == 2


class TestBinnedCounts:
    def test_full_byte_space_bins_evenly(self):
        stream = io.BytesIO(bytes(range(256)))
        counts, consumed, accepted = _read_binned_counts(stream, 8, 10, 250)
        np.testing.assert_array_equal(counts, np.full(10, 25))
        assert consumed == 250
        assert accepted == 250

    def test_rejection_skips_top_band(self):
        # words 250..255 fall above the largest multiple of 10 and are
        # consumed without being binned
        stream = io.BytesIO(bytes([250, 251, 252, 253, 254, 255, 0, 1]))
        counts, consumed, accepted = _read_binned_counts(stream, 8, 10, 2)
        assert consumed == 8
        assert accepted == 2
        assert counts[0] == 1 and counts[1] == 1

    def test_stops_exactly_at_last_draw(self):
        # consumption accounting stops at the word that completes the
        # final draw even though reads happen in larger chunks
        stream = io.BytesIO(bytes(range(100)))
        counts, consumed, accepted = _read_binned_counts(stream, 8, 10, 5)
        assert consumed == 5
        assert accepted == 5
        assert counts.sum() == 5
        np.testing.assert_array_equal(counts[:5], np.ones(5))

    def test_sixteen_bit_words_big_endian(self):
        stream = io.BytesIO(struct.pack(">4H", 0, 1, 2, 3))
        counts, consumed, accepted = _read_binned_counts(stream, 16, 4, 4)
        np.testing.assert_array_equal(counts, [1, 1, 1, 1])

    def test_exhaustion(self):
        stream = io.BytesIO(bytes(8))
        with pytest.raises(InputExhaustedError) as info:
            _read_binned_counts(stream, 64, 4, 5)
        assert info.value.consumed == 1

    def test_trailing_partial_word(self):
        stream = io.BytesIO(bytes(4))
        with pytest.raises(InputExhaustedError):
            _read_binned_counts(stream, 64, 4, 5)

    def test_too_many_cells_for_width(self):
        from multitails.errors import ModelValidationError

        with pytest.raises(ModelValidationError):
            _read_binned_counts(io.BytesIO(bytes(16)), 8, 300, 2)


class TestRngtest:
    def test_constant_stream_flagged(self, capsys, tmp_path):
        stream = tmp_path / "zeros.bin"
        stream.write_bytes(bytes(800))  # 100 zero words of 64 bits
        payload = run_json(
            capsys, "rngtest", "--input", str(stream), "--cells", "4",
            "--draws", "100",
        )
        stats = {s["statistic"]: s for s in payload["statistics"]}
        assert stats["collisions"]["observed"] == 99.0
        assert stats["empty_cells"]["observed"] == 3.0
        assert stats["chi_square"]["observed"] == pytest.approx(300.0, rel=1e-12)
        assert stats["chi_square"]["p_value"] < 1e-6
        assert payload["words_consumed"] == 100

    def test_tiny_config_uses_exact_law(self, capsys, tmp_path):
        stream = tmp_path / "two.bin"
        stream.write_bytes(struct.pack(">QQ", 0, 1))
        payload = run_json(
            capsys, "rngtest", "--input", str(stream), "--cells", "2", "--draws", "2",
        )
        stats = {s["statistic"]: s for s in payload["statistics"]}
        chi = stats["chi_square"]
        assert chi["observed"] == 0.0
        assert chi["p_value"] == 0.5  # P{statistic > 0} under the exact null
        assert chi["rule"] == "exact"

    def test_exact_law_walks_once(self, capsys, tmp_path, monkeypatch):
        words = np.random.default_rng(3).integers(0, 1 << 63, size=12, dtype=np.int64)
        stream = tmp_path / "words.bin"
        stream.write_bytes(words.astype(">u8").tobytes())
        tables = []
        compositions = oracle._compositions

        def counting(*args):
            tables.append(args)
            return compositions(*args)

        monkeypatch.setattr(oracle, "_compositions", counting)
        payload = run_json(
            capsys, "rngtest", "--input", str(stream), "--cells", "5", "--draws", "12",
        )
        assert len(tables) == 1
        monkeypatch.undo()
        # each p-value is bitwise that of the statistic's own enumeration
        model = uniform_model(12, 5)
        specs = dict(_RNGTEST_KERNELS)
        for s in payload["statistics"]:
            assert s["rule"] == "exact"
            dist = enumerate_distribution(model, parse_kernel_spec(specs[s["statistic"]]))
            assert s["p_value"].hex() == dist.tail_prob(s["observed"], "upper").hex()

    def test_healthy_counter_stream(self, capsys, tmp_path):
        # counter-mode generator: every p-value should sit well inside (0, 1)
        words = np.random.Generator(np.random.Philox(7)).integers(
            0, 1 << 63, size=1 << 12, dtype=np.int64
        )
        stream = tmp_path / "philox.bin"
        stream.write_bytes(words.astype(">u8").tobytes())
        payload = run_json(
            capsys, "rngtest", "--input", str(stream), "--cells", "2048",
            "--draws", "4096",
        )
        for s in payload["statistics"]:
            assert 0.001 <= s["p_value"] <= 0.999, s["statistic"]

    def test_order_two_asymptotic(self, capsys, tmp_path):
        # 4096 draws over 64 cells is far too many compositions to enumerate
        words = np.random.default_rng(11).integers(0, 256, size=4096, dtype=np.uint8)
        stream = tmp_path / "bytes.bin"
        stream.write_bytes(words.tobytes())
        payload = run_json(
            capsys, "rngtest", "--input", str(stream), "--word-bits", "8",
            "--cells", "64", "--draws", "4096", "--order", "2",
        )
        model = uniform_model(4096, 64)
        specs = dict(_RNGTEST_KERNELS)
        in_zone = 0
        for s in payload["statistics"]:
            assert s["rule"] != "exact"
            if not s["in_zone"]:
                continue
            in_zone += 1
            kernel = parse_kernel_spec(specs[s["statistic"]])
            summary = moment_summary(model, kernel, method="series")
            aggregates = g_second_moment_aggregates(model, kernel, summary)
            coeffs = correction_coeffs(summary, model.n, order=2, aggregates=aggregates)
            x = s["x"]
            res = tail_probability(
                abs(x), "upper" if x >= 0.0 else "lower",
                summary, coeffs, zone_bound(model, kernel, summary),
            )
            expected = res.p_corrected if x >= 0.0 else 1.0 - res.p_corrected
            assert s["p_value"] == expected, s["statistic"]
        assert in_zone > 0

    def test_exhaustion_exit_code(self, capsys, tmp_path):
        stream = tmp_path / "short.bin"
        stream.write_bytes(bytes(64))  # 8 words only
        code, _, err = run(
            capsys, "rngtest", "--input", str(stream), "--cells", "4",
            "--draws", "100",
        )
        assert code == 4
        assert "8 words" in err

    def test_csv_output(self, capsys, tmp_path):
        stream = tmp_path / "two.bin"
        stream.write_bytes(struct.pack(">QQ", 0, 1))
        code, out, _ = run(
            capsys, "rngtest", "--input", str(stream), "--cells", "2",
            "--draws", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["statistic"] for r in rows] == [
            "chi_square", "log_likelihood", "empty_cells", "collisions",
        ]


class TestExitCodes:
    def test_missing_required_model_arg(self, capsys):
        code, _, err = run(capsys, "moments", "--kernel", "pds:1")
        assert code == 2
        assert "error:" in err

    def test_missing_kernel(self, capsys):
        code, _, _ = run(
            capsys, "moments", "--model", "uniform", "--n", "10", "--cells", "4"
        )
        assert code == 2

    def test_malformed_kernel(self, capsys):
        code, _, _ = run(
            capsys, "moments", "--model", "uniform", "--n", "10", "--cells", "4",
            "--kernel", "pds:abc",
        )
        assert code == 2

    def test_unsupported_combination(self, capsys):
        code, _, _ = run(
            capsys, "moments", "--model", "uniform", "--n", "1024", "--cells", "512",
            "--kernel", "pds:0.5", "--method", "closed_form",
        )
        assert code == 3

    def test_bare_frame_nonuniform_closed_form(self, capsys, tmp_path):
        probs = tmp_path / "probs.txt"
        weights = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        probs.write_text("".join(f"{w:.17g}\n" for w in weights))
        code, _, _ = run(
            capsys, "moments", "--model", "file", "--n", "8",
            "--probs-file", str(probs), "--kernel", "pds:0.5",
            "--frame", "bare", "--method", "closed_form",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--model", "file", "--n", "10", "--probs-file", "{missing}",
             "--kernel", "pds:1"],
            ["moments", "--model", "file", "--n", "10", "--probs-file", "{malformed}",
             "--kernel", "pds:1"],
            ["moments", "--model", "perturbed", "--n", "10", "--cells", "4",
             "--delta", "0.1", "--ell-file", "{missing}", "--kernel", "pds:1"],
            ["moments", "--model", "perturbed", "--n", "10", "--cells", "4",
             "--delta", "0.1", "--ell-file", "{malformed}", "--kernel", "pds:1"],
            ["moments", "--n", "10", "--cells", "4", "--kernel", "unfilled:{missing}"],
            ["moments", "--n", "10", "--cells", "4", "--kernel", "unfilled:{malformed}"],
            ["rngtest", "--input", "{missing}"],
            # an empty stream would exit 4 if it were read before the check
            ["rngtest", "--input", "{empty}", "--cells", "0"],
            ["rngtest", "--input", "{empty}", "--cells", "-4"],
            ["tail", "--n", "10", "--cells", "4", "--kernel", "pds:1", "--x", "1",
             "--zone-fraction", "nan"],
            # no approximation is evaluated at x < 0
            ["simulate", "--n", "10", "--cells", "4", "--kernel", "pds:1", "--x=-1",
             "--trials", "1000", "--zone-fraction", "nan"],
            # an empty stream would exit 4 if it were read before the check
            ["rngtest", "--input", "{empty}", "--cells", "2", "--draws", "2",
             "--zone-fraction", "nan"],
            ["rngtest", "--input", "{empty}", "--cells", "2", "--draws", "2",
             "--zone-fraction=-3"],
            ["simulate", "--n", "10", "--cells", "4", "--kernel", "pds:1", "--x", "1",
             "--trials", "1000", "--workers", "0"],
            ["simulate", "--n", "10", "--cells", "4", "--kernel", "pds:1", "--x", "1",
             "--trials", "1000", "--seed=-1"],
            # x**3 itself overflows a float
            ["tail", "--n", "64", "--cells", "32", "--kernel", "pds:1", "--x", "1e103"],
            # every weight is finite, but their sum overflows
            ["moments", "--model", "powerlaw", "--n", "64", "--cells", "1000",
             "--alpha=-102.66", "--kernel", "pds:1"],
            ["moments", "--model", "uniform", "--n", "10", "--cells", "0", "--kernel", "pds:1"],
            ["moments", "--model", "uniform", "--n", "10", "--cells", "-3", "--kernel", "pds:1"],
            # a table up to level 10^20 would never be built
            ["moments", "--n", "10", "--cells", "4", "--kernel", "unfilled:{huge}"],
        ],
        ids=[
            "probs-missing", "probs-malformed", "ell-missing", "ell-malformed",
            "levels-missing", "levels-malformed", "input-missing", "zero-cells",
            "negative-cells", "nan-zone-fraction", "simulate-nan-zone-fraction",
            "rngtest-nan-zone-fraction", "rngtest-negative-zone-fraction",
            "simulate-zero-workers", "simulate-negative-seed", "tail-exponent-overflow",
            "powerlaw-weight-sum-overflow", "uniform-zero-cells", "uniform-negative-cells",
            "levels-huge",
        ],
    )
    def test_bad_outside_input(self, capsys, tmp_path, argv):
        (tmp_path / "malformed.txt").write_text("half,0.5\n0.5\n")
        (tmp_path / "empty.bin").write_bytes(b"")
        (tmp_path / "huge.txt").write_text("1,0.5\n100000000000000000000,0.5\n")
        paths = {
            "huge": str(tmp_path / "huge.txt"),
            "missing": str(tmp_path / "missing.txt"),
            "malformed": str(tmp_path / "malformed.txt"),
            "empty": str(tmp_path / "empty.bin"),
        }
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_overflowing_weights_warn_nothing(self, capsys):
        code, _, err = run(
            capsys, "moments", "--model", "powerlaw", "--n", "64", "--cells", "32",
            "--alpha", "-800", "--kernel", "pds:1",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("method", ["auto", "series", "closed_form"])
    @pytest.mark.parametrize(
        "model",
        [["uniform", "--n", "1000000", "--cells", "10"],
         ["powerlaw", "--n", "100000", "--cells", "50", "--alpha", "0.5"]],
        ids=["uniform", "powerlaw"],
    )
    def test_rounding_noise_is_no_variance(self, capsys, model, method):
        # every cell holds at least 2 on its whole window: the variance is 0
        code, out, err = run(
            capsys, "moments", "--model", *model, "--kernel", "atleast:2", "--method", method
        )
        assert code == 2, out
        assert "variance" in err

    def test_argparse_rejects_unknown_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["moments", "--model", "zipf", "--n", "10", "--cells", "4",
                  "--kernel", "pds:1"])
        assert info.value.code == 2

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, multitails.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.stdout.strip() == "[]"


def test_overflowing_kernel_prints_only_the_error():
    # pytest records warnings itself, so run the CLI in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "multitails.cli", "moments", "--model", "uniform",
         "--n", "1000000", "--cells", "10", "--kernel", "pds:80", "--frame", "bare"],
        capture_output=True, text=True, env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts and mallopt are glibc on Linux",
)
def test_repeated_summaries_fault_no_memory_in():
    # Freed window tables stay mapped, so once warm a summary touches no new page;
    # with glibc's default trimming these ten calls faulted about 4,600 pages in.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, resource\n"
        "from multitails.cli import main\n"
        "argv = ['tail', '--model', 'powerlaw', '--n', '200', '--cells', '100',\n"
        "        '--alpha', '0.12', '--kernel', 'pds:-0.5', '--x', '1.5', '--order', '2']\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(3):\n"
        "        main(argv)\n"
        "    before = faults()\n"
        "    for _ in range(10):\n"
        "        main(argv)\n"
        "print(faults() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert int(proc.stdout) < 100
