"""End-to-end tests for the command-line interface, driving main() directly
and once through the module entry point."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from matroidkit import catalog
from matroidkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_uniform_and_not(capsys):
    code, out, _ = run(capsys, "check", "catalog:P10", "--k", "2", "--l", "2",
                       "--method", "all")
    assert code == 0
    assert "methods agree: 3/3" in out
    code, out, _ = run(capsys, "check", "catalog:Z6-t", "--k", "2", "--l", "2")
    assert code == 1
    assert "not (2,2)-uniform" in out and "flat {" in out
    code, out, _ = run(capsys, "check", "catalog:Z6-t", "--k", "2", "--l", "2",
                       "--method", "minor")
    assert code == 1
    assert "contract {" in out and "delete {" in out


def test_check_loop_witness(capsys, tmp_path):
    # two independent columns plus two zero columns: the loop pair is the witness
    f = tmp_path / "u22ll.txt"
    f.write_text("2 2 4\n1 0 0 0\n0 1 0 0\n")
    code, out, _ = run(capsys, "check", str(f), "--k", "2", "--l", "2")
    assert code == 1
    assert "nullity 2" in out


def test_check_errors(capsys):
    code, _, err = run(capsys, "check", "catalog:F7", "--k", "3", "--l", "1",
                       "--method", "circuits")
    assert code == 2 and "circuit method" in err
    code, _, err = run(capsys, "check", "catalog:NOPE", "--k", "2", "--l", "2")
    assert code == 2 and "cannot resolve" in err
    code, _, err = run(capsys, "check", "/nonexistent/path.txt",
                       "--k", "2", "--l", "2")
    assert code == 2


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "catalog:S8", "--k", "2", "--l", "2",
                       "--method", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["uniform"] and doc["agree"]
    assert set(doc["methods"]) == {"flats", "minor", "circuits"}
    code, out, _ = run(capsys, "check", "catalog:Z5", "--k", "2", "--l", "2",
                       "--json")
    assert code == 1
    doc = json.loads(out)
    assert not doc["uniform"]
    assert doc["methods"]["flats"]["witness"]["flat"]


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "catalog:P10", "catalog:P10*")
    assert code == 0 and "isomorphic" in out and "->" in out
    code, out, _ = run(capsys, "iso", "catalog:F7", "catalog:F7*")
    assert code == 1 and "not isomorphic" in out
    code, out, _ = run(capsys, "iso", "catalog:MK33", "catalog:L10", "--json")
    assert code == 1 and json.loads(out)["bijection"] is None


def test_minor_command(capsys):
    code, out, _ = run(capsys, "minor", "catalog:P10", "catalog:MW4")
    assert code == 0 and "contract" in out
    code, out, _ = run(capsys, "minor", "catalog:F7", "catalog:U24")
    assert code == 1 and "no minor" in out
    code, out, _ = run(capsys, "minor", "catalog:MK33", "catalog:F7",
                       "--json")
    assert code == 1 and json.loads(out)["has_minor"] is False


def test_dual_writes_loadable_text(capsys, tmp_path):
    out_file = tmp_path / "p9d.txt"
    code, _, _ = run(capsys, "dual", "catalog:P9", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "iso", str(out_file), "catalog:P9*")
    assert code == 0
    # graphic input: the dual leaves the graphic world, matrix fallback kicks in
    code, out, _ = run(capsys, "dual", "catalog:MW3")
    assert code == 0
    assert out.startswith("2 3 6")


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("F7", "P9", "P10", "R10", "MK33"):
        assert name in out
    code, out, _ = run(capsys, "catalog", "show", "P9")
    assert code == 0
    assert "rank 4, 9 elements, simple, cosimple" in out
    assert "1 0 0 0 1 0 0 1 1" in out
    code, _, err = run(capsys, "catalog", "show")
    assert code == 2 and "needs a name" in err


def test_catalog_export_roundtrips_every_entry(capsys, tmp_path):
    for e in catalog.entries():
        f = tmp_path / f"{e.name.replace('*', 'd')}.txt"
        code, _, _ = run(capsys, "catalog", "export", e.name, "-o", str(f))
        assert code == 0
        code, out, _ = run(capsys, "iso", str(f), f"catalog:{e.name}")
        assert code == 0, e.name


def test_graph_and_graft_file_input(capsys, tmp_path):
    g = tmp_path / "k4.txt"
    g.write_text("graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "check", str(g), "--k", "2", "--l", "2",
                       "--method", "all")
    assert code == 0
    code, _, _ = run(capsys, "iso", str(g), "catalog:MW3")
    assert code == 0
    gr = tmp_path / "wheel_graft.txt"
    gr.write_text("graph 5 8\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n4 1\n"
                  "gamma 0 1 2 3\n")
    code, _, _ = run(capsys, "iso", str(gr), "catalog:P9")
    assert code == 0


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "grafts", "p10-facts")
    assert code == 0
    assert out.count("PASS") == 2 and "0 failed" in out
    code, out, _ = run(capsys, "verify", "f-values-31")
    assert code == 0 and "PASS" in out and "f(3,1,2)=5" in out
    code, _, err = run(capsys, "verify", "no-such-check")
    assert code == 2 and "unknown check ids" in err


def test_verify_list_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "census" in out
    code, out, _ = run(capsys, "verify", "three-sum", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["checks"][0]["id"] == "three-sum"
    assert doc["checks"][0]["status"] == "pass"


def test_search_command_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "search", "--rank", "4", "--k", "2", "--l", "1",
                       "--cosimple", "--json", str(report))
    assert code == 0
    assert "5 isomorphism classes" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1 and doc["f_value"] == 4
    assert [4, 8, 1] in doc["counts"]
    assert len(doc["representatives"]) == 5


def test_search_budget_checkpoint_resume(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _, err = run(capsys, "search", "--rank", "5", "--k", "2", "--l", "2",
                       "--budget", "30", "--checkpoint", str(ck))
    assert code == 3 and "budget exhausted" in err
    assert ck.exists()
    code, out, _ = run(capsys, "search", "--rank", "5", "--k", "2", "--l", "2",
                       "--resume", str(ck))
    assert code == 0
    assert "88 isomorphism classes" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "matroidkit.cli", "catalog", "list"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "P10" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "matroidkit.cli", "check", "catalog:F7",
         "--k", "2", "--l", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_bad_usage_is_argparse_error():
    # a missing argument, and the removed --workers, --simple, --slow and
    # --skip-slow options
    for argv in (["search", "--rank", "4"],
                 ["search", "--rank", "4", "--k", "2", "--l", "2", "--workers", "2"],
                 ["search", "--rank", "4", "--k", "2", "--l", "2", "--simple"],
                 ["verify", "grafts", "--slow"],
                 ["verify", "grafts", "--skip-slow"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
