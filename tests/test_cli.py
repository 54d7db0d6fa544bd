"""Command line behaviour: output shapes, exit codes, determinism."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import intervalcat.cli as cli
from intervalcat.cli import main
from intervalcat.closure import ClosureSpec
from intervalcat.counting import closed_masks, count_next_closure, lattice, reference_sequence
from intervalcat.intervals import _iter_bits, all_intervals, interval_from_index, universe_size

from helpers import all_specs


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--ops", "E")
    assert code == 0 and out == "7\n"
    code, out, _ = run(capsys, "count", "--n", "1", "--ops", "QSCKE")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "count", "--n", "5", "--ops", "Q")
    assert code == 0 and out == "720\n"


def test_count_brute(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--ops", "CK", "--algorithm", "brute")
    assert code == 0 and out == "22\n"


def test_count_verify(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--ops", "E", "--verify")
    assert code == 0 and out == "34\n" and err == ""


def test_verify_skipped_above_cap_is_reported(capsys):
    # n = 7 has 28 intervals, above the 24-bit cap of the subset sweep
    code, out, err = run(capsys, "count", "--n", "7", "--ops", "QSE", "--verify")
    assert code == 0 and out == "128\n"
    assert err == "verification skipped: the subset sweep at n=7 needs 28 bits, cap is 24\n"
    code, out, err = run(capsys, "sequence", "--ops", "QSE", "--n-max", "8", "--verify", "--format", "csv")
    assert code == 0 and out.splitlines()[-2:] == ["7,128", "8,256"]
    assert err == "verification skipped for n >= 7: the subset sweep at n=7 needs 28 bits, cap is 24\n"


def test_brute_verify_cross_checks_next_closure(capsys, monkeypatch):
    # a wrong next-closure count must surface: brute is checked against it, not against itself
    monkeypatch.setattr(cli, "count_next_closure", lambda n, spec: -1)
    code, _, err = run(capsys, "count", "--n", "3", "--ops", "CK", "--algorithm", "brute", "--verify")
    assert code == 1
    assert err == "verification failed: 22 from brute, -1 from next-closure\n"
    code, _, err = run(capsys, "sequence", "--ops", "CK", "--n-max", "3", "--algorithm", "brute", "--verify")
    assert code == 1
    assert err == "verification failed at n=1: 2 from brute, -1 from next-closure\n"


def test_layers_verify_cross_checks_brute(capsys, monkeypatch):
    # the default algorithm is the layer transfer, checked against the subset sweep
    monkeypatch.setattr(cli, "count_brute", lambda n, spec: -1)
    code, _, err = run(capsys, "count", "--n", "3", "--ops", "CK", "--verify")
    assert code == 1
    assert err == "verification failed: 22 from layers, -1 from brute\n"
    code, _, err = run(capsys, "sequence", "--ops", "CK", "--n-max", "3", "--verify")
    assert code == 1
    assert err == "verification failed at n=1: 2 from layers, -1 from brute\n"


def test_invalid_ops_exit_2(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--ops", "QZ")
    assert code == 2
    assert "QSCKE" in err


def test_bad_n_exit_2(capsys):
    code, _, err = run(capsys, "count", "--n", "0", "--ops", "Q")
    assert code == 2


def test_brute_cap_exit_3(capsys):
    # the sweep's own message, the one that the verification skip line quotes
    code, out, err = run(capsys, "count", "--n", "7", "--ops", "Q", "--algorithm", "brute")
    assert (code, out) == (3, "")
    assert err == "error: the subset sweep at n=7 needs 28 bits, cap is 24\n"


def test_sequence_table_and_compare(capsys):
    code, out, _ = run(capsys, "sequence", "--ops", "QE", "--n-max", "4", "--compare")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["1", "2", "ref=2", "ok"]
    assert lines[3].split() == ["4", "42", "ref=42", "ok"]


def test_sequence_compare_needs_a_format_with_references(capsys):
    for fmt in ("json", "oeis"):
        code, out, err = run(capsys, "sequence", "--ops", "QE", "--n-max", "3", "--compare", "--format", fmt)
        assert code == 2 and out == ""
        assert "table" in err and "csv" in err
    code, out, _ = run(capsys, "sequence", "--ops", "QE", "--n-max", "2", "--compare", "--format", "csv")
    assert code == 0 and out == "n,count,reference,match\n1,2,2,true\n2,5,5,true\n"


def test_sequence_csv(capsys):
    code, out, _ = run(capsys, "sequence", "--ops", "QE", "--n-max", "4", "--format", "csv")
    assert code == 0
    assert out == "n,count\n1,2\n2,5\n3,14\n4,42\n"


def test_sequence_oeis_bfile(capsys):
    code, out, _ = run(capsys, "sequence", "--ops", "E", "--n-max", "3", "--format", "oeis")
    assert code == 0
    assert out == "1 2\n2 7\n3 34\n"


def test_sequence_json(capsys):
    code, out, _ = run(capsys, "sequence", "--ops", "", "--n-max", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ops"] == "" and doc["algorithm"] == "layers"
    assert [t["count"] for t in doc["terms"]] == [2, 8, 64, 1024]


def test_sequence_json_echoes_algorithm_name(capsys):
    argv = ("sequence", "--ops", "Q", "--n-max", "3", "--algorithm", "next-closure", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "next-closure"
    assert [t["count"] for t in doc["terms"]] == [2, 6, 24]


def test_sequence_writers_equal_reference_all_specs(capsys):
    # every format, written here from the enumeration's counts and the closed forms
    for s in all_specs():
        ops = str(s) or "none"
        terms = [(n, count_next_closure(n, s), reference_sequence(s, n)) for n in range(1, 6)]
        table = "".join(f"{n:>3} {count}\n" for n, count, _ in terms)
        compared = "".join(
            f"{n:>3} {count}" + ("" if ref is None else f"  ref={ref} {'ok' if ref == count else 'MISMATCH'}") + "\n"
            for n, count, ref in terms
        )
        csv = "n,count\n" + "".join(f"{n},{count}\n" for n, count, _ in terms)
        csv_compared = "n,count,reference,match\n" + "".join(
            f"{n},{count},,\n" if ref is None else f"{n},{count},{ref},{str(ref == count).lower()}\n"
            for n, count, ref in terms
        )
        doc = {"ops": str(s), "algorithm": "layers", "terms": [{"n": n, "count": count} for n, count, _ in terms]}
        expected = {
            ("table",): table,
            ("table", "--compare"): compared,
            ("csv",): csv,
            ("csv", "--compare"): csv_compared,
            ("json",): json.dumps(doc, sort_keys=True) + "\n",
            ("oeis",): "".join(f"{n} {count}\n" for n, count, _ in terms),
        }
        for (fmt, *compare), want in expected.items():
            got = run(capsys, "sequence", "--ops", ops, "--n-max", "5", "--format", fmt, *compare)
            assert got == (0, want, ""), (ops, fmt, compare)


@pytest.mark.parametrize("algorithm", ["layers", "next-closure", "brute"])
def test_count_is_the_last_term_of_sequence(capsys, algorithm):
    # the two commands dispatch apart; count --n N prints term N of sequence --n-max N
    for s in all_specs():
        ops = str(s) or "none"
        for n in range(1, 5):
            _, row, _ = run(capsys, "sequence", "--ops", ops, "--n-max", str(n), "--algorithm", algorithm, "--format", "oeis")
            code, out, err = run(capsys, "count", "--n", str(n), "--ops", ops, "--algorithm", algorithm)
            assert (code, f"{n} {out}", err) == (0, row.splitlines(keepends=True)[-1], ""), (ops, n)


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_141_quietly(fmt):
    # the reader goes away after the first bytes: exit as SIGPIPE would, with nothing on stderr
    argv = [sys.executable, "-m", "intervalcat.cli", "list", "--ops", "E", "--n", "8", "--format", fmt]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


_NUMPY_PROBE = """
import contextlib, io, json, sys
from intervalcat.cli import main
calls = [
    ["sequence", "--ops", "C", "--n-max", "4"],
    ["list", "--ops", "E", "--n", "3", "--format", "json"],
    ["count", "--ops", "CK", "--n", "4"],
    ["check", "--ops", "E", "--n", "2", "--set", "1,1;2,2"],
    ["count", "--ops", "CK", "--n", "3", "--algorithm", "brute"],
    ["lattice", "--ops", "QE", "--n", "3", "--format", "json"],
    ["poset", "--file", sys.argv[1], "--checks", "chain"],
]
report = []
for argv in calls:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    loaded = [name in sys.modules for name in ("numpy", "intervalcat.oracle", "intervalcat.gf2")]
    report.append([code, out.getvalue(), loaded])
print(json.dumps(report))
"""


def test_only_the_sweep_and_lattice_import_numpy(tmp_path):
    # a fresh process: the test process has numpy and the oracle loaded already
    f = tmp_path / "chain.poset"
    f.write_text("a <= b\nb <= c\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(f)], capture_output=True, text=True, env=_fresh_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for code, _, _ in report] == [0] * 7
    # numpy, oracle, gf2 after each call: only the chain check loads the oracle
    assert [loaded for _, _, loaded in report] == [[False] * 3] * 4 + [[True, False, False]] * 2 + [[True] * 3]
    assert report[4][1] == "22\n"
    assert len(json.loads(report[5][1])["members"]) == 14
    assert "chain_equivalence = true\n" in report[6][1]


def test_posets_imports_no_module_representation():
    # a fresh process: the test process has the oracle loaded already
    probe = "import json, sys; import intervalcat.posets; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "intervalcat.posets" in loaded
    assert not {"intervalcat.oracle", "intervalcat.gf2"} & loaded


def test_list(capsys):
    code, out, _ = run(capsys, "list", "--n", "2", "--ops", "Q")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == ""  # the empty set comes first in lectic order
    code, out, _ = run(capsys, "list", "--n", "2", "--ops", "Q", "--format", "json")
    assert len(json.loads(out)["sets"]) == 6


def test_list_bytes_equal_a_plain_formatting_all_specs(capsys):
    # the per-layer tables must print what formatting each set from its bit indices prints
    for s in all_specs():
        for n in range(1, 6):
            sets = [sorted(i for i in range(universe_size(n)) if m >> i & 1) for m in closed_masks(n, s)]
            ops = str(s) or "none"
            code, out, err = run(capsys, "list", "--n", str(n), "--ops", ops)
            lines = "".join(";".join(interval_from_index(i).to_text() for i in idx) + "\n" for idx in sets)
            assert (code, out, err) == (0, lines, ""), (ops, n)
            code, out, err = run(capsys, "list", "--n", str(n), "--ops", ops, "--format", "json")
            doc = json.dumps({"n": n, "ops": str(s), "sets": sets}, sort_keys=True) + "\n"
            assert (code, out, err) == (0, doc, ""), (ops, n)


def test_list_counts_equal_next_closure(capsys):
    code, out, _ = run(capsys, "list", "--n", "7", "--ops", "E")
    assert code == 0 and out.count("\n") == count_next_closure(7, ClosureSpec.parse("E")) == 69978
    code, out, _ = run(capsys, "list", "--n", "7", "--ops", "E", "--format", "json")
    sets = json.loads(out)["sets"]
    assert code == 0 and len({tuple(idx) for idx in sets}) == len(sets) == 69978


def test_list_streams_in_batches(monkeypatch):
    class Stdout:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    stub = Stdout()
    monkeypatch.setattr(sys, "stdout", stub)
    assert main(["list", "--n", "7", "--ops", "E", "--format", "json"]) == 0
    total = sum(map(len, stub.writes))
    assert len(json.loads("".join(stub.writes))["sets"]) == 69978
    assert max(map(len, stub.writes)) <= total / 4


def test_list_bytes_do_not_depend_on_the_batch_size(capsys, monkeypatch):
    """A write holds whole parents; the batch size moves where writes fall, never the bytes."""
    for s in all_specs():
        ops = str(s) or "none"
        for n in range(1, 5):
            for fmt in ("text", "json"):
                argv = ("list", "--n", str(n), "--ops", ops, "--format", fmt)
                outputs = set()
                for batch in (1, 3, 4096):
                    monkeypatch.setattr(cli, "_LIST_BATCH", batch)
                    outputs.add(run(capsys, *argv))
                assert len(outputs) == 1, (ops, n, fmt)


def test_check(capsys):
    code, out, _ = run(capsys, "check", "--n", "2", "--ops", "E", "--set", "1,1;2,2")
    assert code == 0
    assert out == "not closed\nmissing: 1,2\n"
    code, out, _ = run(capsys, "check", "--n", "2", "--ops", "E", "--set", "")
    assert code == 0 and out == "closed\n"
    code, out, _ = run(capsys, "check", "--n", "2", "--ops", "QSCKE", "--set", "1,1;1,2;2,2")
    assert code == 0 and out == "closed\n"


def test_check_bad_literal(capsys):
    code, _, err = run(capsys, "check", "--n", "2", "--ops", "E", "--set", "1-1")
    assert code == 2


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "1", "--ops", "Q")
    assert code == 0
    assert out.count("label=") == 2
    assert "n0 -> n1;" in out


def test_lattice_json_matches_count(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2", "--ops", "CKE", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["members"]) == 5
    code, out, _ = run(capsys, "count", "--n", "2", "--ops", "CKE")
    assert int(out) == 5


def test_lattice_writers_equal_reference_all_specs(capsys):
    # the hand-written JSON is json.dumps with sorted keys, and the DOT its plain line-by-line form
    for s in all_specs():
        for n in range(1, 5):
            ops = str(s) or "none"
            fam = lattice(n, s)
            members = [list(_iter_bits(m)) for m in fam.members]
            doc = {"n": n, "ops": str(s), "members": members, "covers": [list(c) for c in fam.covers]}
            _, out, _ = run(capsys, "lattice", "--n", str(n), "--ops", ops, "--format", "json")
            assert out == json.dumps(doc, sort_keys=True) + "\n", (ops, n)
            names = [str(iv) for iv in all_intervals(n)]
            lines = ["digraph closed_sets {", "  rankdir=BT;"]
            lines += [f'  n{i} [label="{{{",".join(names[k] for k in m)}}}"];' for i, m in enumerate(members)]
            lines += [f"  n{lo} -> n{hi};" for lo, hi in fam.covers]
            _, out, _ = run(capsys, "lattice", "--n", str(n), "--ops", ops)
            assert out == "\n".join(lines + ["}"]) + "\n", (ops, n)


def test_lattice_walks_the_sets_of_list_all_specs(capsys):
    # the JSON members are the list's index lists and each DOT label its text line, bracketed
    for s in all_specs():
        for n in range(1, 5):
            ops = str(s) or "none"
            _, out, _ = run(capsys, "list", "--n", str(n), "--ops", ops, "--format", "json")
            sets = json.loads(out)["sets"]
            _, out, _ = run(capsys, "lattice", "--n", str(n), "--ops", ops, "--format", "json")
            assert json.loads(out)["members"] == sets, (ops, n)
            _, out, _ = run(capsys, "list", "--n", str(n), "--ops", ops)
            labels = ["{" + ",".join(f"[{iv}]" for iv in line.split(";") if iv) + "}" for line in out.splitlines()]
            _, out, _ = run(capsys, "lattice", "--n", str(n), "--ops", ops)
            nodes = [line for line in out.splitlines() if "label=" in line]
            assert nodes == [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)], (ops, n)


def test_lattice_cap_exit_3(capsys):
    code, _, _ = run(capsys, "lattice", "--n", "3", "--ops", "", "--max-members", "5")
    assert code == 3


def test_lattice_nonpositive_cap_exit_2(capsys):
    for cap in ("0", "-3"):
        code, _, err = run(capsys, "lattice", "--n", "2", "--ops", "Q", "--max-members", cap)
        assert code == 2
        assert err == f"error: --max-members must be >= 1, got {cap}\n"


def test_poset_report(capsys, tmp_path):
    f = tmp_path / "chain.poset"
    f.write_text("a\nb\nc\na <= b\nb <= c\n", encoding="utf-8")
    code, out, _ = run(capsys, "poset", "--file", str(f))
    assert code == 0
    assert out == (
        "elements = 3\n"
        "ideals = 4\n"
        "subfunctors[a] = 2 (ideals_below = 2, match = true)\n"
        "subfunctors[b] = 3 (ideals_below = 3, match = true)\n"
        "subfunctors[c] = 4 (ideals_below = 4, match = true)\n"
        "subfunctors_match = true\n"
        "incidence_dimension = 6\n"
    )


def test_poset_report_on_wide_antichain(capsys, tmp_path):
    # 2^15 ideals: the default report prints every output, with no pairwise sweep over ideals
    f = tmp_path / "anti.poset"
    f.write_text("".join(f"a{i}\n" for i in range(15)), encoding="utf-8")
    code, out, _ = run(capsys, "poset", "--file", str(f))
    assert code == 0
    assert "ideals = 32768\n" in out
    assert "subfunctors_match = true\n" in out
    assert out.endswith("incidence_dimension = 15\n")


@pytest.mark.parametrize("atoms, tops", [(21, 1), (19, 8)])
def test_poset_subfunctor_work_cap_exit_3(capsys, tmp_path, monkeypatch, atoms, tops):
    # 2^22 + 42 and 2^23 + 38 supports in total: the cap ends the report before any sweep
    def no_sweep(p, x):
        raise AssertionError("swept before the cap check")

    monkeypatch.setattr(cli, "subfunctor_count", no_sweep)
    f = tmp_path / "wide.poset"
    f.write_text("".join(f"a{i} <= t{j}\n" for i in range(atoms) for j in range(tops)), encoding="utf-8")
    code, out, err = run(capsys, "poset", "--file", str(f), "--checks", "subfunctors")
    supports = 2 ** (atoms + 1) * tops + 2 * atoms
    assert (code, out) == (3, f"elements = {atoms + tops}\n")
    assert err == f"error: the subfunctor report sweeps {supports} supports, cap is {1 << 22}\n"


def test_poset_subfunctor_cap_is_on_the_total(capsys, tmp_path, monkeypatch):
    # the 3-chain sweeps 2 + 4 + 8 supports
    f = tmp_path / "chain.poset"
    f.write_text("a <= b\nb <= c\n", encoding="utf-8")
    monkeypatch.setattr(cli, "SUBFUNCTOR_CAP", 14)
    code, out, _ = run(capsys, "poset", "--file", str(f), "--checks", "subfunctors")
    assert code == 0 and out.endswith("subfunctors_match = true\n")
    monkeypatch.setattr(cli, "SUBFUNCTOR_CAP", 13)
    code, out, err = run(capsys, "poset", "--file", str(f), "--checks", "subfunctors")
    assert (code, out) == (3, "elements = 3\n")
    assert err == "error: the subfunctor report sweeps 14 supports, cap is 13\n"


def test_poset_chain_check(capsys, tmp_path, monkeypatch):
    f = tmp_path / "chain.poset"
    f.write_text("a <= b\nb <= c\n", encoding="utf-8")
    code, out, _ = run(capsys, "poset", "--file", str(f), "--checks", "chain")
    assert code == 0
    assert "chain_equivalence = true" in out

    # a poset that is not a chain is rejected before any report line or sweep
    def no_sweep(p):
        raise AssertionError("swept before the chain check")

    monkeypatch.setattr(cli, "ideals", no_sweep)
    g = tmp_path / "anti.poset"
    g.write_text("a\nb\n", encoding="utf-8")
    code, out, _ = run(capsys, "poset", "--file", str(g), "--checks", "chain")
    assert (code, out) == (2, "")
    g.write_text("a\nb\nc\nx <= a\n", encoding="utf-8")
    code, out, err = run(capsys, "poset", "--file", str(g), "--checks", "ideals,chain")
    assert (code, out) == (2, "")
    assert err == "error: the chain check needs a totally ordered input poset\n"


def test_poset_cycle_exit_2(capsys, tmp_path):
    f = tmp_path / "cycle.poset"
    f.write_text("a <= b\nb <= a\n", encoding="utf-8")
    code, _, err = run(capsys, "poset", "--file", str(f))
    assert code == 2
    assert "cycle" in err


def test_poset_missing_file_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "poset", "--file", str(tmp_path / "nope"))
    assert code == 2


def test_poset_unknown_check_exit_2(capsys, tmp_path):
    f = tmp_path / "p.poset"
    f.write_text("a\n", encoding="utf-8")
    for check in ("bogus", "distributive", "coherent", "compact-meet"):
        code, out, err = run(capsys, "poset", "--file", str(f), "--checks", check)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown check {check!r}")


def test_byte_determinism(capsys):
    first = run(capsys, "sequence", "--ops", "CK", "--n-max", "4", "--format", "json")
    second = run(capsys, "sequence", "--ops", "CK", "--n-max", "4", "--format", "json")
    assert first == second
    first = run(capsys, "lattice", "--n", "2", "--ops", "E")
    second = run(capsys, "lattice", "--n", "2", "--ops", "E")
    assert first == second


def test_readme_command_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "intervalcat" for argv in commands)
    (tmp_path / "chain.poset").write_text("a <= b\nb <= c\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
