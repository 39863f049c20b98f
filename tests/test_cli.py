import argparse
import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qimrot import cli
from qimrot.cli import (
    EXIT_DOMAIN,
    EXIT_FORMAT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_WRITE,
    build_parser,
    config_from_args,
    run,
)
from qimrot.oracle import oracle_rotate, oracle_shear
from qimrot.pgm import read_pgm, write_pgm

from rasters import gradient, random_raster
from test_neqr_pgm import HEADER_REFUSALS


def invoke(argv):
    return run(config_from_args(build_parser().parse_args(argv)))


@pytest.fixture
def image_file(tmp_path):
    path = str(tmp_path / "in.pgm")
    write_pgm(path, gradient(16))
    return path


def test_rotate_angle_zero_is_identity(tmp_path, image_file):
    out = str(tmp_path / "out.pgm")
    assert invoke(["rotate", "--input", image_file, "--output", out, "--angle", "0"]) == EXIT_OK
    assert np.array_equal(read_pgm(out), read_pgm(image_file))


def test_rotate_emits_three_phase_files(tmp_path):
    src = str(tmp_path / "in64.pgm")
    write_pgm(src, random_raster(64, seed=31))
    out = str(tmp_path / "r45.pgm")
    assert invoke(["rotate", "--input", src, "--output", out, "--angle", "45",
                   "--emit-intermediates"]) == EXIT_OK
    final = read_pgm(out)
    phase1 = read_pgm(str(tmp_path / "r45.phase1.pgm"))
    phase2 = read_pgm(str(tmp_path / "r45.phase2.pgm"))
    assert np.array_equal(final, oracle_rotate(read_pgm(src), 45))
    assert not np.array_equal(phase1, phase2)


def test_rotate_semantic_and_netlist_modes_agree(tmp_path, image_file):
    out_a = str(tmp_path / "a.pgm")
    out_b = str(tmp_path / "b.pgm")
    assert invoke(["rotate", "--input", image_file, "--output", out_a,
                   "--angle", "30"]) == EXIT_OK
    assert invoke(["rotate", "--input", image_file, "--output", out_b,
                   "--angle", "30", "--mode", "netlist"]) == EXIT_OK
    assert np.array_equal(read_pgm(out_a), read_pgm(out_b))


def test_rotate_order_flag_is_inert(tmp_path, image_file):
    outs = []
    for order in ("tb", "bt"):
        out = str(tmp_path / f"o{order}.pgm")
        assert invoke(["rotate", "--input", image_file, "--output", out,
                       "--angle", "45", "--mode", "netlist", "--order", order]) == EXIT_OK
        outs.append(read_pgm(out))
    assert np.array_equal(outs[0], outs[1])


def test_exact_turn_matches_rot90(tmp_path, image_file):
    out = str(tmp_path / "turn.pgm")
    assert invoke(["rotate", "--input", image_file, "--output", out,
                   "--exact-turn", "90"]) == EXIT_OK
    assert np.array_equal(read_pgm(out), np.rot90(read_pgm(image_file)))


@pytest.mark.parametrize("tail", [["--emit-intermediates"], ["--canvas", "expand"],
                                  ["--mode", "netlist"]],
                         ids=["emit-intermediates", "canvas-expand", "mode-netlist"])
def test_exact_turn_refuses_intermediates_and_writes_nothing(tmp_path, image_file, capsys, tail):
    out = str(tmp_path / "turn.pgm")
    assert invoke(["rotate", "--input", image_file, "--output", out,
                   "--exact-turn", "90", *tail]) == EXIT_DOMAIN
    assert "exact turn has no" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


def test_rotate_expand_canvas_output_is_4x_side(tmp_path, image_file):
    out = str(tmp_path / "big.pgm")
    assert invoke(["rotate", "--input", image_file, "--output", out,
                   "--angle", "45", "--canvas", "expand"]) == EXIT_OK
    assert read_pgm(out).shape == (64, 64)


def test_netlist_expand_rotate_matches_semantic(tmp_path, image_file):
    outs = []
    for mode in ("semantic", "netlist"):
        out = str(tmp_path / f"{mode}.pgm")
        assert invoke(["rotate", "--input", image_file, "--output", out, "--angle", "30",
                       "--canvas", "expand", "--mode", mode]) == EXIT_OK
        outs.append(read_pgm(out))
    assert outs[0].shape == (64, 64)
    assert np.array_equal(outs[0], outs[1])


def test_shear_factor_and_ascii_output(tmp_path, image_file):
    out = str(tmp_path / "sheared.pgm")
    assert invoke(["shear", "--input", image_file, "--output", out,
                   "--axis", "horizontal", "--factor", "0.5", "--ascii"]) == EXIT_OK
    with open(out, "rb") as handle:
        assert handle.read(2) == b"P2"
    assert np.array_equal(read_pgm(out), oracle_shear(read_pgm(image_file), "horizontal", 0.5))


@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
@pytest.mark.parametrize("factor", ["144115188075855872", "1e20", "-3e18",
                                    "1e308", "-1e308", "1.7976931348623157e308"])
def test_shear_by_a_huge_factor_matches_the_oracle(tmp_path, image_file, axis, factor):
    out = str(tmp_path / "sheared.pgm")
    assert invoke(["shear", "--input", image_file, "--output", out,
                   "--axis", axis, f"--factor={factor}"]) == EXIT_OK
    assert np.array_equal(read_pgm(out), oracle_shear(read_pgm(image_file), axis, float(factor)))


def test_shear_netlist_mode_matches_semantic(tmp_path, image_file):
    a, b = str(tmp_path / "sa.pgm"), str(tmp_path / "sb.pgm")
    for out, mode in ((a, "semantic"), (b, "netlist")):
        assert invoke(["shear", "--input", image_file, "--output", out,
                       "--axis", "vertical", "--angle", "30", "--mode", mode]) == EXIT_OK
    assert np.array_equal(read_pgm(a), read_pgm(b))


def test_verify_reports_pass(capsys):
    assert invoke(["verify", "--angle", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "netlist == semantic == oracle: PASS" in out
    assert "ideal-rotation agreement" in out


def test_verify_runs_at_the_paper_scale(capsys):
    assert invoke(["verify", "--angle", "30", "--size", "512"]) == EXIT_OK
    assert "netlist == semantic == oracle: PASS" in capsys.readouterr().out


def test_netlist_expand_runs_on_the_widest_frame(tmp_path):
    # a 128x128 image on the 2^9 expand frame, the largest netlist mode runs
    src = str(tmp_path / "in128.pgm")
    write_pgm(src, random_raster(128, seed=33))
    outs = []
    for mode in ("semantic", "netlist"):
        out = str(tmp_path / f"{mode}.pgm")
        assert invoke(["rotate", "--input", src, "--output", out, "--angle", "30",
                       "--mode", mode, "--canvas", "expand"]) == EXIT_OK
        outs.append(read_pgm(out))
    assert outs[0].shape == (512, 512)
    assert np.array_equal(outs[0], outs[1])


def test_verify_accepts_input_file(tmp_path, image_file, capsys):
    assert invoke(["verify", "--angle", "45", "--input", image_file]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_audit_writes_csv_and_passes(tmp_path, capsys):
    report = str(tmp_path / "audit.csv")
    assert invoke(["audit", "--n-min", "2", "--n-max", "3",
                   "--m-min", "4", "--m-max", "5", "--report", report]) == EXIT_OK
    with open(report) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0] == "kind,n,m,predicted,measured_core,overhead,delta"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
    out = capsys.readouterr().out
    assert "all core deltas zero" in out
    assert "ideal-rotation agreement" not in out  # that number comes from verify


class TestErrorExits:
    def test_unsupported_angle(self, tmp_path, image_file):
        out = str(tmp_path / "x.pgm")
        assert invoke(["rotate", "--input", image_file, "--output", out,
                       "--angle", "95"]) == EXIT_DOMAIN

    def test_bad_input_file(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_text("not a pgm at all")
        out = str(tmp_path / "x.pgm")
        assert invoke(["rotate", "--input", str(bad), "--output", out,
                       "--angle", "30"]) == EXIT_FORMAT

    def test_missing_input_file(self, tmp_path):
        out = str(tmp_path / "x.pgm")
        assert invoke(["rotate", "--input", str(tmp_path / "none.pgm"),
                       "--output", out, "--angle", "30"]) == EXIT_FORMAT

    def test_non_power_of_two_image(self, tmp_path):
        src = str(tmp_path / "odd.pgm")
        write_pgm(src, np.zeros((12, 12), dtype=np.uint8))
        out = str(tmp_path / "x.pgm")
        assert invoke(["rotate", "--input", src, "--output", out,
                       "--angle", "30"]) == EXIT_FORMAT

    def test_netlist_mode_size_limit(self, tmp_path):
        src = str(tmp_path / "big.pgm")
        write_pgm(src, np.zeros((1024, 1024), dtype=np.uint8))
        out = str(tmp_path / "x.pgm")
        assert invoke(["rotate", "--input", src, "--output", out,
                       "--angle", "30", "--mode", "netlist"]) == EXIT_DOMAIN

    def test_netlist_mode_rejects_expand_canvas(self, tmp_path):
        # a 256x256 image needs a 2^10 expand frame, beyond the netlist limit
        src = str(tmp_path / "in256.pgm")
        write_pgm(src, random_raster(256, seed=32))
        out = tmp_path / "x.pgm"
        assert invoke(["rotate", "--input", src, "--output", str(out),
                       "--angle", "30", "--mode", "netlist",
                       "--canvas", "expand"]) == EXIT_DOMAIN
        assert not out.exists()

    @pytest.mark.parametrize("canvas", ["clip", "expand"])
    def test_single_pixel_image_is_out_of_domain(self, tmp_path, canvas):
        src = str(tmp_path / "dot.pgm")
        write_pgm(src, np.full((1, 1), 7, dtype=np.uint8))
        assert invoke(["rotate", "--input", src, "--output", str(tmp_path / "x.pgm"),
                       "--angle", "30", "--canvas", canvas]) == EXIT_DOMAIN

    @pytest.mark.parametrize("subcommand", [
        ["rotate", "--angle", "30"],
        ["shear", "--axis", "vertical", "--factor", "0.5"],
        ["verify", "--angle", "30"],
    ])
    def test_unreadable_input_path(self, tmp_path, capsys, subcommand):
        # a directory cannot be read as a file
        argv = [*subcommand, "--input", str(tmp_path)]
        if subcommand[0] != "verify":
            argv += ["--output", str(tmp_path / "x.pgm")]
        assert invoke(argv) == EXIT_FORMAT
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("name, reason", [("missing.pgm", "No such file or directory"),
                                              (".", "Is a directory")], ids=["missing", "directory"])
    def test_read_error_names_the_input_once(self, tmp_path, capsys, name, reason):
        path = str(tmp_path / name)
        assert invoke(["rotate", "--input", path, "--output", str(tmp_path / "x.pgm"),
                       "--angle", "30"]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"

    def test_p2_sample_beyond_int64(self, tmp_path, capsys):
        src = tmp_path / "big.pgm"
        src.write_text("P2\n2 2\n255\n0 1 2 99999999999999999999999\n")
        assert invoke(["rotate", "--input", str(src), "--output", str(tmp_path / "x.pgm"),
                       "--angle", "30"]) == EXIT_FORMAT
        assert "sample outside [0, 255]" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", [["--factor", "nan"], ["--factor", "inf"],
                                        ["--angle", "nan"], ["--angle", "inf"]])
    def test_non_finite_shear_factor(self, tmp_path, image_file, factor):
        out = tmp_path / "x.pgm"
        assert invoke(["shear", "--input", image_file, "--output", str(out),
                       "--axis", "horizontal", *factor]) == EXIT_DOMAIN
        assert not out.exists()

    def test_netlist_shear_refuses_factor_beyond_register(self, tmp_path, image_file):
        out = tmp_path / "x.pgm"
        assert invoke(["shear", "--input", image_file, "--output", str(out),
                       "--axis", "vertical", "--factor", "2", "--mode", "netlist"]) == EXIT_DOMAIN
        assert not out.exists()
        # the largest factor the 5-bit register holds, 31/16, still runs
        assert invoke(["shear", "--input", image_file, "--output", str(out),
                       "--axis", "vertical", "--factor", "1.96", "--mode", "netlist"]) == EXIT_OK
        assert np.array_equal(read_pgm(str(out)), oracle_shear(read_pgm(image_file), "vertical", 1.96))

    @pytest.mark.parametrize("argv", [
        ["verify", "--angle", "30", "--size", "-4"],
        ["verify", "--angle", "30", "--size", "1024"],  # beyond the netlist frame limit
        ["audit", "--n-min", "0"],
        ["audit", "--m-min", "3"],
        ["audit", "--n-min", "5", "--n-max", "2"],
    ])
    def test_parameter_out_of_domain(self, argv):
        assert invoke(argv) == EXIT_DOMAIN

    @pytest.mark.parametrize("size", ["1024", "12", "3"])
    def test_verify_size_refused_before_the_image_is_built(self, monkeypatch, capsys, size):
        def no_checkerboard(*args, **kwargs):
            raise AssertionError("checkerboard built before the refusal")

        monkeypatch.setattr(cli.patterns, "checkerboard", no_checkerboard)
        assert invoke(["verify", "--angle", "30", "--size", size]) == EXIT_DOMAIN
        # verify runs on the clip canvas, so the reason must not blame the expand frame
        assert "the expand canvas's frame" not in capsys.readouterr().err

    def test_verify_has_no_mode_option(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--angle", "30", "--mode", "netlist"])
        assert exc.value.code == 2

    def test_verify_refuses_input_with_size(self, image_file, capsys):
        # --input replaces the built-in image, so a --size with it would be ignored
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--angle", "30", "--input", image_file,
                                       "--size", "3"])
        assert exc.value.code == 2
        assert "not allowed with argument --input" in capsys.readouterr().err

    def test_verify_mismatch_exit_used_for_failures(self, monkeypatch, capsys):
        def oracle_off_by_one_pixel(raster, angle):
            reference = oracle_rotate(raster, angle)
            reference[0, 0] ^= 1
            return reference

        monkeypatch.setattr(cli, "oracle_rotate", oracle_off_by_one_pixel)
        assert invoke(["verify", "--angle", "30"]) == EXIT_MISMATCH
        assert "netlist == semantic == oracle: FAIL" in capsys.readouterr().out

    def test_rotate_output_into_missing_directory(self, tmp_path, image_file, capsys):
        out = tmp_path / "missing" / "out.pgm"
        assert invoke(["rotate", "--input", image_file, "--output", str(out),
                       "--angle", "30", "--emit-intermediates"]) == EXIT_WRITE
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert ".tmp" not in err  # the writer's temp file is not the user's path
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]

    def test_audit_report_into_missing_directory(self, tmp_path, capsys):
        report = tmp_path / "missing" / "audit.csv"
        assert invoke(["audit", "--n-max", "3", "--m-max", "5",
                       "--report", str(report)]) == EXIT_WRITE
        assert f"cannot write {report}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_outputs_replace_old_files_with_the_mode_open_gives(self, tmp_path, image_file):
        with open(tmp_path / "plain", "w"):
            pass
        mode = (tmp_path / "plain").stat().st_mode
        out, report = tmp_path / "out.pgm", tmp_path / "audit.csv"
        out.write_text("old")
        report.write_text("old")
        assert invoke(["rotate", "--input", image_file, "--output", str(out),
                       "--angle", "30"]) == EXIT_OK
        assert invoke(["audit", "--n-max", "3", "--m-max", "5", "--report", str(report)]) == EXIT_OK
        assert out.read_bytes().startswith(b"P5\n16 16\n255\n")
        assert report.read_text().startswith("kind,n,m,predicted,")
        assert out.stat().st_mode == report.stat().st_mode == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.csv", "in.pgm", "out.pgm",
                                                              "plain"]  # no temp file left

    @pytest.mark.parametrize("step, error", [
        ("open", OSError(errno.EACCES, "Permission denied")),  # a read-only directory
        ("replace", OSError(errno.ENOSPC, "No space left on device")),
    ], ids=["read-only-directory", "disk-full"])
    def test_audit_report_is_replaced_never_truncated(self, tmp_path, monkeypatch, capsys,
                                                       step, error):
        report = tmp_path / "audit.csv"
        report.write_bytes(b"old")

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(os, step, fail)
        assert invoke(["audit", "--n-max", "3", "--m-max", "5",
                       "--report", str(report)]) == EXIT_WRITE
        monkeypatch.undo()
        assert capsys.readouterr().err == f"error: cannot write {report}: {error.strerror}\n"
        assert report.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["audit.csv"]  # no temp file left

    @pytest.mark.parametrize("data, message", HEADER_REFUSALS)
    def test_header_refusal_names_the_input_once(self, tmp_path, capsys, data, message):
        src = tmp_path / "t.pgm"
        src.write_bytes(data)
        assert invoke(["rotate", "--input", str(src), "--output", str(tmp_path / "o.pgm"),
                       "--angle", "30"]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.pgm"]

    @pytest.mark.parametrize("buffering", ["unbuffered", "block-buffered"])
    @pytest.mark.parametrize("argv", [["verify", "--angle", "30"], ["audit", "--n-max", "3"]],
                             ids=["verify", "audit"])
    def test_closed_stdout(self, argv, buffering):
        # as under `qimrot verify | head -1`: stdout is a pipe nobody reads.
        # Unbuffered, the first print fails; block-buffered, the output fails
        # only when flushed, and the interpreter flushes again at exit.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "qimrot.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_WRITE, err
        assert "cannot write standard output" in err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_cli_surface():
    # argparse is the one place holding the options and their defaults
    common = ["-h", "--help", "--order"]
    written = [*common, "--input", "--output", "--ascii", "--mode", "--canvas"]
    expected = {
        "rotate": [*written, "--angle", "--exact-turn", "--emit-intermediates"],
        "shear": [*written, "--axis", "--factor", "--angle"],
        "verify": [*common, "--angle", "--input", "--size"],
        "audit": ["-h", "--help", "--report", "--n-min", "--n-max", "--m-min", "--m-max"],
    }
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = sub.choices
    assert sorted(parsers) == sorted(expected)
    for name, options in expected.items():
        actual = [o for action in parsers[name]._actions for o in action.option_strings]
        assert sorted(actual) == sorted(options), name

    parse = parser.parse_args
    verify = parse(["verify", "--angle", "30"])
    assert (verify.size, verify.order) == (16, "tb")
    audit = parse(["audit"])
    assert (audit.n_min, audit.n_max, audit.m_min, audit.m_max) == (2, 6, 4, 8)
    for head in (["rotate", "--angle", "30"], ["shear", "--axis", "vertical", "--factor", "0.5"]):
        args = parse([*head, "--input", "in.pgm", "--output", "out.pgm"])
        assert (args.canvas, args.mode, args.order) == ("clip", "semantic", "tb"), head[0]
