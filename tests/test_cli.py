"""Tests for the ``python -m repro`` command-line driver."""

import subprocess
import sys

import pytest

from conftest import CHAIN_SOURCE as CHAIN
from conftest import DEEP_DO_SOURCE as DEEP_DO
from conftest import DEEP_IF_SOURCE as DEEP_IF
from conftest import DEEP_SOURCE as DEEP
from conftest import FLOOR_SOURCE as FLOOR
from repro.__main__ import main

FIG1 = """real A(64,64), V(128)
do k = 1, 64
  A(k,1:64) = A(k,1:64) + V(k:k+63)
enddo
"""


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "fig1.dp"
    f.write_text(FIG1)
    return str(f)


class TestCLI:
    def test_basic_run(self, prog_file, capsys):
        assert main([prog_file]) == 0
        out = capsys.readouterr().out
        assert "total realignment cost" in out

    def test_algorithm_flag(self, prog_file, capsys):
        assert main([prog_file, "--algorithm", "unrolling", "--no-replication"]) == 0
        out = capsys.readouterr().out
        assert "total realignment cost" in out

    def test_static_flag_costs_more(self, prog_file, capsys):
        main([prog_file, "--no-replication"])
        mobile_out = capsys.readouterr().out
        main([prog_file, "--no-replication", "--static"])
        static_out = capsys.readouterr().out

        def cost(text):
            for line in text.splitlines():
                if "total realignment cost" in line:
                    return int(line.rsplit(" ", 1)[1])
            raise AssertionError(text)

        assert cost(static_out) > cost(mobile_out)

    def test_dot_output(self, prog_file, tmp_path, capsys):
        dot = tmp_path / "adg.dot"
        assert main([prog_file, "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")

    def test_measure(self, prog_file, capsys):
        assert main([prog_file, "--no-replication", "--measure", "identity"]) == 0
        out = capsys.readouterr().out
        assert "machine (identity):" in out

    def test_measure_block_with_procs(self, prog_file, capsys):
        assert (
            main(
                [prog_file, "--no-replication", "--measure", "block", "--procs", "4,4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "machine (block):" in out

    def test_measure_with_a_grid_that_fills_a_finite_machine(self, prog_file, capsys):
        args = [prog_file, "--topology", "grid:3x3", "--measure", "block", "--procs", "3"]
        assert main(args) == 0
        assert "machine (block):" in capsys.readouterr().out

    def test_distribute(self, prog_file, capsys):
        assert main([prog_file, "--no-replication", "--distribute", "4"]) == 0
        out = capsys.readouterr().out
        assert "distribution plan" in out
        assert "DISTRIBUTE T(" in out
        assert "naive" in out
        assert "machine (planned):" in out

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_prom_out_writes_a_valid_exposition(
        self, prog_file, tmp_path, batch
    ):
        from obs_formats import check_exposition

        out = tmp_path / "metrics.prom"
        run = ["--batch", "4", "--jobs", "1"] if batch else [prog_file]
        assert main([*run, "--distribute", "4", "--prom-out", str(out)]) == 0
        assert check_exposition(out.read_text()) == []

    def test_phases_flag_is_gone(self, prog_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([prog_file, "--distribute", "4", "--phases"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --phases" in capsys.readouterr().err

    def test_replan_from(self, prog_file, tmp_path, capsys):
        edited = tmp_path / "fig1_edit.dp"
        edited.write_text(FIG1.replace("+ V", "- V"))
        assert (
            main([str(edited), "--replan-from", prog_file, "--distribute", "4"])
            == 0
        )
        out = capsys.readouterr().out
        assert "delta replan: strategy=carry_all" in out
        assert "reused (clean)" in out
        assert "distribution plan" in out

    def test_replan_from_rejects_batch(self, prog_file):
        with pytest.raises(SystemExit):
            main(["--batch", "4", "--replan-from", prog_file])

    @pytest.mark.parametrize(
        "argv,diagnostic",
        [
            (
                ["missing.dp"],
                "error: missing.dp: FileNotFoundError: [Errno 2] "
                "No such file or directory: 'missing.dp'",
            ),
            (
                ["ok.dp", "--replan-from", "missing.dp"],
                "error: missing.dp: FileNotFoundError: [Errno 2] "
                "No such file or directory: 'missing.dp'",
            ),
            (
                ["bad.dp"],
                "error: bad.dp: ValueError: array A has nonpositive extent",
            ),
            (
                ["sup.dp"],
                "error: sup.dp: LexError: line 1: unexpected character '²' at col 8",
            ),
            (
                ["deep.dp", "--distribute", "4"],
                "error: deep.dp: ParseError: deep.dp:2: expression nested deeper than 100 levels",
            ),
            (
                ["floor.dp", "--distribute", "4"],
                "error: floor.dp: TypeError_: section extent floor((4095 - 1/2*i + j)/1) + 1 "
                "is not affine over the loop ranges",
            ),
            (
                ["ok.dp", "--replan-from", "floor.dp"],
                "error: floor.dp: TypeError_: section extent floor((4095 - 1/2*i + j)/1) + 1 "
                "is not affine over the loop ranges",
            ),
            (
                ["chain.dp", "--distribute", "4"],
                "error: chain.dp: ParseError: chain.dp:2: expression nested deeper than 100 levels",
            ),
            (
                ["do.dp", "--distribute", "4"],
                "error: do.dp: ParseError: do.dp:102: blocks nested deeper than 100 levels",
            ),
            (
                ["if.dp", "--distribute", "4"],
                "error: if.dp: ParseError: if.dp:102: blocks nested deeper than 100 levels",
            ),
        ],
    )
    def test_unreadable_program_is_a_diagnostic_not_a_traceback(
        self, argv, diagnostic, tmp_path, monkeypatch, capsys
    ):
        """The ``Type: message`` a ``--batch`` row reports for the same
        file, on stderr, exit status 1."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.dp").write_text(FIG1, encoding="utf-8")
        (tmp_path / "bad.dp").write_text("real A(0)\n", encoding="utf-8")
        (tmp_path / "sup.dp").write_text("real A(²)\nA = 1\n", encoding="utf-8")
        (tmp_path / "deep.dp").write_text(DEEP, encoding="utf-8")
        (tmp_path / "floor.dp").write_text(FLOOR, encoding="utf-8")
        (tmp_path / "chain.dp").write_text(CHAIN, encoding="utf-8")
        (tmp_path / "do.dp").write_text(DEEP_DO, encoding="utf-8")
        (tmp_path / "if.dp").write_text(DEEP_IF, encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == diagnostic
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flags,status,diagnostic",
        [
            (
                ["--measure", "block", "--procs", "x"],
                2,
                "python -m repro: error: --procs needs comma-separated "
                "integers >= 1, got 'x'",
            ),
            (
                ["--measure", "block", "--procs", "0"],
                2,
                "python -m repro: error: --procs needs comma-separated "
                "integers >= 1, got '0'",
            ),
            (
                ["--measure", "block", "--procs", "4,4,4"],
                1,
                "error: fig1.dp: ValueError: --procs 4,4,4: a rank-3 processor "
                "grid for a rank-2 template",
            ),
            (
                ["--topology", "grid:3x3", "--measure", "block", "--procs", "2"],
                1,
                "error: fig1.dp: ValueError: --procs 2: topology 'grid:3x3' is a "
                "9-processor machine but nprocs=4 was requested; make the two "
                "agree (or drop one)",
            ),
            (
                ["--m", "0"],
                2,
                "python -m repro: error: m=0 is not a subrange count: "
                "give an int >= 1",
            ),
        ],
        ids=[
            "procs_not_an_int",
            "procs_zero",
            "procs_wrong_rank",
            "procs_short_of_the_machine",
            "m_zero",
        ],
    )
    def test_bad_flag_values_are_refused_without_a_traceback(
        self, flags, status, diagnostic, tmp_path, monkeypatch, capsys
    ):
        """A flag value nothing can plan with is an argparse error (exit
        2); a processor grid that does not fit the program's template or
        fill a finite machine is the one-line diagnostic of the program
        (exit 1)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig1.dp").write_text(FIG1, encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(["fig1.dp", *flags])
        assert exit_.value.code == status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == diagnostic
        if status == 1:
            assert err.count("\n") == 1

    def test_subprocess_invocation(self, prog_file):
        res = subprocess.run(
            [sys.executable, "-m", "repro", prog_file, "--m", "3"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert res.returncode == 0
        assert "total realignment cost" in res.stdout


class TestBatchCLI:
    def test_generated_corpus(self, tmp_path, capsys):
        out_json = tmp_path / "batch.json"
        assert (
            main(
                [
                    "--batch",
                    "6",
                    "--distribute",
                    "4",
                    "--jobs",
                    "1",
                    "--batch-json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch: 6 programs" in out
        assert "cache align.moments" in out
        import json

        blob = json.loads(out_json.read_text())
        assert blob["programs"] == 6 and blob["ok"] == 6

    def test_directory_corpus(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.dp").write_text(FIG1)
        (d / "b.dp").write_text("real A(8)\nA(1:8) = A(1:8) + 1.0\n")
        assert main(["--batch", str(d), "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 programs" in out

    def test_failures_set_exit_code(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "bad.dp").write_text("this is junk (\n")
        assert main(["--batch", str(d), "--jobs", "1"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_file_required_without_batch(self):
        with pytest.raises(SystemExit):
            main([])

    def test_batch_rejects_single_program_flags(self, prog_file):
        for extra in (
            [prog_file],
            ["--measure", "identity"],
            ["--dot", "/tmp/x.dot"],
        ):
            with pytest.raises(SystemExit):
                main(["--batch", "2", *extra])

    def test_bad_batch_argument(self, capsys):
        assert main(["--batch", "/definitely/not/there"]) == 1

    def test_nonpositive_count_rejected(self, capsys):
        assert main(["--batch", "0"]) == 1
        assert main(["--batch", "-5"]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_serial_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--batch", "3", "--serial"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --serial" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_refused_by_both_clis(self, jobs, capsys):
        from repro.serve.__main__ import main as serve_main

        for run in (main, serve_main):
            args = ["--batch", "3", "--jobs", jobs] if run is main else ["--jobs", jobs]
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2
            assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_non_utf8_file_is_diagnosed_not_crashed(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "good.dp").write_text("real A(8)\nA(1:8) = A(1:8) + 1.0\n")
        (d / "junk.bin").write_bytes(b"\xff\xfe\x00garbage\x80")
        assert main(["--batch", str(d), "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "1 ok, 1 failed" in out and "FAILED junk.bin" in out
