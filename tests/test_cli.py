"""End-to-end command-line behaviour: formats, pipes, and exit codes."""

import hashlib
import io
import json
import math
import os
import select
import subprocess
import sys

import numpy as np
import pytest

from spexlab.cli import main
from spexlab.graphs import (
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
    turan,
    y_graph,
)
from spexlab.random_graphs import random_graph
from spexlab.search import canonical_graph6
from spexlab.spectral import _rho
from spexlab.structure import FeasibilityError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_ygraph(capsys):
    code, out, _ = run(capsys, "construct", "--family", "ygraph", "--r", "3", "--n", "9")
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.edge_count == 25


def test_construct_families_and_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "turan", "--r", "2", "--n", "5")
    assert code == 0 and graph6_decode(out.strip()).rows == turan(2, 5).rows
    code, out, _ = run(capsys, "construct", "--family", "book", "--r", "3", "--k", "2",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 5 and doc["size"] == 9
    code, out, _ = run(capsys, "construct", "--family", "multipartite", "--parts", "2,3")
    assert code == 0 and graph6_decode(out.strip()).edge_count == 6
    code, out, _ = run(capsys, "construct", "--family", "ugraph", "--m", "5")
    assert code == 0 and graph6_decode(out.strip()).edge_count == 5


def test_construct_missing_parameter(capsys):
    code, _, err = run(capsys, "construct", "--family", "turan", "--r", "3")
    assert code == 2
    assert "requires parameter" in err


def test_spectrum_stdin_pipe(capsys, monkeypatch):
    lines = graph6_encode(turan(3, 9)) + "\n\n" + graph6_encode(y_graph(3, 9)) + "\n"
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, _ = run(capsys, "spectrum", "--in", "-")
    assert code == 0
    docs = [json.loads(t) for t in out.strip().splitlines()]
    assert len(docs) == 2  # blank line skipped
    assert docs[0]["rho"] == pytest.approx(6.0, abs=1e-9)
    assert docs[1]["size"] == 25
    assert docs[0]["residual"] <= 1e-10


def test_spectrum_file_and_malformed_line(tmp_path, capsys):
    f = tmp_path / "graphs.g6"
    f.write_text(graph6_encode(turan(2, 4)) + "\nnot graph6!!\n")
    code, _, err = run(capsys, "spectrum", "--in", str(f))
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "spectrum", "--in", str(tmp_path / "missing.g6"))
    assert code == 2
    assert "cannot read" in err


def test_non_ascii_file_byte_is_named_by_line(tmp_path, capsys):
    # the lines before it are answered first; exit 2 as for any malformed line
    f = tmp_path / "graphs.g6"
    f.write_bytes(graph6_encode(path_graph(3)).encode() + b"\r\nB\xc3\xa9\n")
    code, out, err = run(capsys, "check", "--in", str(f), "--chromatic")
    assert (code, json.loads(out)["chromatic"]) == (2, 2)
    assert err == "error: line 2: byte 195 outside graph6 range 63..126 (byte offset 1)\n"


def test_check_flags(tmp_path, capsys):
    f = tmp_path / "y.g6"
    f.write_text(graph6_encode(y_graph(3, 9)) + "\n")
    code, out, _ = run(capsys, "check", "--in", str(f), "--book", "3,1",
                       "--rpartite", "3", "--chromatic", "--color-critical")
    assert code == 0
    doc = json.loads(out)
    assert doc["contains_book"] is False
    assert doc["is_r_partite"] is False
    assert doc["chromatic"] == 4
    assert doc["color_critical"] is True


CHECK_PIN = (
    '{"order": 20, "size": 39, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": true, "coloring": [0, 0, 1, 2, 1, 1, 2, 0, 2, 0, 2, 1, 0, 2, 1, 2, 2, 1, 1, 0]'
    ', "chromatic": 3, "color_critical": false, "critical_edge": null}\n'
    '{"order": 24, "size": 82, "book": [3, 2], "contains_book": true, "book_witness": [7, 10, 21, 14, 20]'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 4, "color_critical": false, "critical_edge": null}\n'
    '{"order": 18, "size": 52, "book": [3, 2], "contains_book": true, "book_witness": [2, 7, 11, 3, 16]'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 4, "color_critical": false, "critical_edge": null}\n'
    '{"order": 18, "size": 43, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 4, "color_critical": true, "critical_edge": [4, 5]}\n'
    '{"order": 22, "size": 32, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": true, "coloring": [1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 2, 1, 1, 0, 0, 0, 2, 0, 2, 0]'
    ', "chromatic": 3, "color_critical": false, "critical_edge": null}\n'
    '{"order": 23, "size": 53, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 4, "color_critical": true, "critical_edge": [0, 19]}\n'
    '{"order": 21, "size": 84, "book": [3, 2], "contains_book": true, "book_witness": [6, 15, 16, 0, 5]'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 5, "color_critical": true, "critical_edge": [14, 18]}\n'
    '{"order": 10, "size": 11, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": true, "coloring": [1, 1, 0, 0, 1, 1, 0, 2, 0, 1]'
    ', "chromatic": 3, "color_critical": true, "critical_edge": [1, 3]}\n'
    '{"order": 10, "size": 14, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": true, "coloring": [2, 1, 0, 1, 1, 1, 0, 2, 1, 0]'
    ', "chromatic": 3, "color_critical": false, "critical_edge": null}\n'
    '{"order": 11, "size": 6, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": true, "coloring": [0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0]'
    ', "chromatic": 2, "color_critical": false, "critical_edge": null}\n'
    '{"order": 21, "size": 92, "book": [3, 2], "contains_book": true, "book_witness": [0, 6, 15, 8, 10]'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 5, "color_critical": false, "critical_edge": null}\n'
    '{"order": 23, "size": 58, "book": [3, 2], "contains_book": false, "book_witness": null'
    ', "rpartite": 3, "is_r_partite": false, "coloring": null'
    ', "chromatic": 4, "color_critical": false, "critical_edge": null}\n'
)


def test_check_bytes(capsys, monkeypatch):
    # witness colourings and critical edges of 12 seeded G(n, p) graphs, n in [10, 24]
    rng = np.random.default_rng(4)
    lines = []
    for _ in range(12):
        n, p = int(rng.integers(10, 25)), float(rng.uniform(0.1, 0.45))
        lines.append(graph6_encode(random_graph(n, p, rng)))
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(s + "\n" for s in lines)))
    code, out, _ = run(capsys, "check", "--in", "-", "--book", "3,2", "--rpartite", "3",
                       "--chromatic", "--color-critical")
    assert code == 0
    assert out == CHECK_PIN


def test_check_streams_stdin_line_by_line(monkeypatch):
    # each line's result is on stdout before the next line is read; lines split
    # at "\n", "\r\n" and "\r"
    path, k4 = graph6_encode(path_graph(3)), graph6_encode(complete_graph(4))
    out = io.StringIO()

    def stdin():
        yield path + "\n"
        assert json.loads(out.getvalue()) == {"order": 3, "size": 2, "chromatic": 2}
        yield k4 + "\r" + path + "\r\n"
        yield "\n"

    monkeypatch.setattr("sys.stdin", stdin())
    monkeypatch.setattr("sys.stdout", out)
    assert main(["check", "--in", "-", "--chromatic"]) == 0
    assert [json.loads(t)["chromatic"] for t in out.getvalue().splitlines()] == [2, 4, 2]


def test_check_answers_each_piped_line_while_stdin_is_open():
    # a block-buffered stdout pipe would hold line 1's result until stdin closes
    import spexlab

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spexlab.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from spexlab.cli import main; sys.exit(main())",
         "check", "--in", "-", "--chromatic"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    try:
        proc.stdin.write(graph6_encode(path_graph(3)) + "\n")
        proc.stdin.flush()
        assert select.select([proc.stdout], [], [], 60)[0], "no result while stdin is open"
        assert json.loads(proc.stdout.readline())["chromatic"] == 2
        proc.stdin.write(graph6_encode(complete_graph(4)) + "\n")
        proc.stdin.close()
        assert json.loads(proc.stdout.readline())["chromatic"] == 4
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()


def test_check_colours_each_graph_once_for_chromatic_and_criticality(capsys, monkeypatch):
    # is_color_critical reuses the chromatic number that --chromatic computed
    import spexlab.structure as structure_mod

    rng = np.random.default_rng(4)
    lines = "".join(graph6_encode(random_graph(int(rng.integers(10, 25)), 0.3, rng)) + "\n"
                    for _ in range(6))
    real = structure_mod._colour  # every colouring runs this kernel
    calls = []
    monkeypatch.setattr(structure_mod, "_colour", lambda adj, r: calls.append(r) or real(adj, r))

    def dsatur_calls(*flags):
        structure_mod._chromatic_number.cache_clear()
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert run(capsys, "check", "--in", "-", *flags)[0] == 0
        return len(calls)

    assert dsatur_calls("--chromatic") > 0
    assert dsatur_calls("--chromatic", "--color-critical") == dsatur_calls("--color-critical")


def test_check_contracts_twins_and_grows_a_clique_once_per_graph(capsys, monkeypatch):
    # is_r_colorable, the chromatic number and colour-criticality share each
    # line's colouring view, its twin contraction h, and the greedy clique of h
    import spexlab.structure as structure_mod

    graphs = [turan(3, 7), y_graph(3, 9), path_graph(5), complete_graph(4)]
    with_twins = sum(len(structure_mod._contract_twins(g)[1]) < g.n for g in graphs)
    structure_mod._contract_twins.cache_clear()
    structure_mod.greedy_clique.cache_clear()
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(graph6_encode(g) + "\n" for g in graphs)))
    code, out, _ = run(capsys, "check", "--in", "-", "--rpartite", "3", "--chromatic",
                       "--color-critical")
    assert code == 0 and len(out.splitlines()) == len(graphs)
    assert with_twins == 2
    assert structure_mod._contract_twins.cache_info().misses == len(graphs)
    assert structure_mod.greedy_clique.cache_info().misses == len(graphs)


def test_closed_stdout_is_a_quiet_success(tmp_path):
    # `spexlab construct ... | head -c 10`: the 750 kB graph6 line of K_3000
    # overflows the pipe, so the write fails once the reader has gone
    import spexlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spexlab.__file__)))
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from spexlab.cli import main; sys.exit(main())",
             "construct", "--family", "complete", "--n", "3000"],
            stdout=subprocess.PIPE, stderr=err, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
    assert (tmp_path / "err").read_bytes() == b""


def test_check_rpartite_on_a_long_path(capsys, monkeypatch):
    # the colouring search keeps its own stack, so depth is not bounded by recursion
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(path_graph(3000)) + "\n"))
    code, out, err = run(capsys, "check", "--in", "-", "--rpartite", "2", "--chromatic")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["is_r_partite"] is True and doc["chromatic"] == 2
    col = doc["coloring"]
    assert len(col) == 3000 and set(col) == {0, 1}
    assert all(col[i] != col[i + 1] for i in range(2999))


def test_check_color_critical_on_a_long_odd_cycle(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(cycle_graph(3001)) + "\n"))
    code, out, err = run(capsys, "check", "--in", "-", "--color-critical")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["color_critical"] is True and doc["critical_edge"] == [0, 1]


def test_check_book_on_a_large_clique(capsys, monkeypatch):
    # the clique search keeps its own stack, so r is not bounded by recursion
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(complete_graph(1010)) + "\n"))
    code, out, err = run(capsys, "check", "--in", "-", "--book", "1000,5")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["contains_book"] is True and doc["book_witness"] == list(range(1005))


def test_search_json_and_csv(capsys):
    code, out, _ = run(capsys, "search", "spex", "--n", "5", "--forbid-clique", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["champions"][0][0] == canonical_graph6(turan(2, 5))
    assert doc["exhaustive"] is True
    code, out2, _ = run(capsys, "search", "ex", "--n", "5", "--forbid-clique", "3",
                        "--format", "csv")
    assert code == 0
    lines = out2.strip().splitlines()
    assert lines[0].startswith("n,objective,graph6,value")
    assert lines[1].split(",")[3] == "6"


def test_verify_lemma32_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "lemma32", "--n", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["poly_match"] and doc["sign_ok"]


def test_verify_lemma27(capsys):
    code, out, _ = run(capsys, "verify", "lemma27", "--r", "3", "--n", "9")
    assert code == 0
    assert json.loads(out)["pass"]


LEMMA27_PINS = {
    ("4", "30"): '{"r": 4, "n": 30, "max_rho": 22.111013729466023, "argmax_is_y": true, '
    '"configs_scanned": 910, "gap_to_non_isomorphic": 0.011916678262245739, "unique": true, '
    '"pass": true}\n',
    ("3", "14"): '{"r": 3, "n": 14, "max_rho": 8.886718777211819, "argmax_is_y": true, '
    '"configs_scanned": 36, "gap_to_non_isomorphic": 0.06989917279437563, "unique": true, '
    '"pass": true}\n',
    ("2", "4"): '{"r": 2, "n": 4, "max_rho": 1.618033988749895, "argmax_is_y": true, '
    '"configs_scanned": 1, "gap_to_non_isomorphic": null, "unique": true, "pass": true}\n',
}


@pytest.mark.parametrize("r,n", sorted(LEMMA27_PINS))
def test_verify_lemma27_stdout_pins(capsys, r, n):
    code, out, _ = run(capsys, "verify", "lemma27", "--r", r, "--n", n)
    assert code == 0 and out == LEMMA27_PINS[r, n]


@pytest.mark.parametrize(
    "r,n", [("3", "3000"), ("400", "800"), ("1500", "3000"), ("5000", "10000")]
)
def test_verify_lemma27_guard_is_a_usage_error(capsys, r, n):
    code, out, err = run(capsys, "verify", "lemma27", "--r", r, "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error: family scan guard: more than 20000 configurations")
    assert "Traceback" not in err


def test_verify_lemma28(capsys):
    code, out, _ = run(capsys, "verify", "lemma28", "--r", "3", "--n-max", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["checked"] == 40 - 6 + 1


def test_verify_wilf(capsys):
    code, out, _ = run(capsys, "verify", "wilf", "--r", "3", "--n-max", "60",
                       "--trials", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["worst_margin"] <= 1e-9


def test_verify_rotation(capsys):
    code, out, _ = run(capsys, "verify", "rotation", "--trials", "25", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["min_gain"] > 1e-9


def test_verify_trials_must_be_positive(capsys):
    for argv in (["wilf", "--r", "3", "--n-max", "10"], ["rotation"]):
        for trials in ("0", "-3"):
            code, out, err = run(capsys, "verify", *argv, "--trials", trials)
            assert code == 2 and out == ""
            assert "--trials" in err


def test_seed_must_be_nonnegative(capsys, monkeypatch):
    # spectrum --seed -1 exited 0 on graphs that eigh solves and 2 with numpy's
    # message once power iteration ran; verify printed numpy's message too
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(complete_graph(5)) + "\n"))
    for argv in (["spectrum", "--in", "-"], ["verify", "wilf", "--r", "3", "--n-max", "10"],
                 ["verify", "rotation", "--trials", "1"]):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "", argv
        assert "--seed" in err and "must be >= 0, got -1" in err, argv


def test_spectrum_maxiter_must_be_positive(capsys, monkeypatch):
    # zero iterations used to end as an internal ConvergenceError (exit 3)
    for maxiter in ("0", "-3"):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(path_graph(100)) + "\n"))
        code, out, err = run(capsys, "spectrum", "--in", "-", "--maxiter", maxiter)
        assert code == 2 and out == ""
        assert "--maxiter" in err


def test_tol_must_be_a_finite_number(capsys, monkeypatch):
    # nan used to pass every scan comparison (0 violations over 0 witnesses) and
    # to run spectrum to --maxiter; a negative scan tol flagged every class
    for tol in ("nan", "-1"):
        code, out, err = run(capsys, "scan", "--kind", "nosal_book", "--max-n", "6",
                             "--k", "2", "--tol", tol)
        assert code == 2 and out == "" and "tol must be nonnegative and finite" in err
    g = random_graph(100, 0.3, np.random.default_rng(0))
    for tol in ("nan", "0", "inf"):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(g) + "\n"))
        code, out, err = run(capsys, "spectrum", "--in", "-", "--tol", tol)
        assert code == 2 and out == "" and "tol must be positive and finite" in err


def strict_json(text):
    def reject(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_json_output_is_strict(capsys):
    # a single configuration has no rival: the gap is null, not Infinity
    code, out, _ = run(capsys, "verify", "lemma27", "--r", "2", "--n", "4")
    doc = strict_json(out)
    assert code == 0 and doc["gap_to_non_isomorphic"] is None and doc["pass"]
    code, out, _ = run(capsys, "verify", "rotation", "--trials", "1")
    assert code == 0 and strict_json(out)["pass"]


def test_internal_failure_exit_code(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(path_graph(100)) + "\n"))
    code, out, err = run(capsys, "spectrum", "--in", "-", "--maxiter", "3")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ConvergenceError")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    import spexlab.cli as cli_mod

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli_mod, "chromatic_number", too_deep)
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(turan(3, 6)) + "\n"))
    code, out, err = run(capsys, "check", "--in", "-", "--chromatic")
    assert code == 3 and err.startswith("internal error: RecursionError")


@pytest.mark.parametrize("exc", [ZeroDivisionError, RuntimeError])
def test_unexpected_exception_is_internal_error(capsys, monkeypatch, exc):
    import spexlab.cli as cli_mod

    def broken(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli_mod, "verify_lemma32", broken)
    code, out, err = run(capsys, "verify", "lemma32", "--n", "10")
    assert code == 3 and out == ""
    assert err == f"internal error: {exc.__name__}: boom\n"


@pytest.mark.parametrize("exc, code", [
    (FeasibilityError("raised while judging"), 2),
    (ZeroDivisionError("raised while judging"), 3),
    (RecursionError("maximum recursion depth exceeded"), 3),
])
def test_search_exception_in_a_census_worker_exits_as_in_process(capsys, monkeypatch, exc, code):
    # the search's rho raises on the classes with 12 edges, which a pool worker
    # judges when the level is pooled; no worker is left behind either way
    import multiprocessing

    import spexlab.search as search_mod

    real = search_mod._rhos

    def rhos(graphs):
        if any(g.edge_count == 12 for g in graphs):
            raise exc
        return real(graphs)

    monkeypatch.setattr(search_mod, "_rhos", rhos)
    monkeypatch.setattr(search_mod, "_pool_workers", lambda: 2)
    results = []
    for threshold in (1, math.inf):
        monkeypatch.setattr(search_mod, "_POOL_MIN_LEVEL", threshold)
        results.append(run(capsys, "search", "spex", "--n", "8", "--forbid-clique", "4"))
        assert multiprocessing.active_children() == []
    assert results[0] == results[1]
    got, out, err = results[0]
    assert got == code and out == ""
    assert err.endswith(f"{exc}\n") and len(err.splitlines()) == 1


def test_import_does_not_load_multiprocessing():
    # the census imports it when it first starts a pool; at import it would add
    # about 22 ms to every command's start-up
    import spexlab

    code = "import sys, spexlab.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spexlab.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "nosal_book", "--max-n", "5", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and doc["witnesses_all_complete_bipartite"]


def test_usage_errors(capsys):
    assert run(capsys, "search", "spex", "--n", "5")[0] == 2  # no constraint set
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys, "construct", "--family", "turan", "--bogus-flag", "1")[0] == 2
    assert run(capsys, "search", "spex", "--n", "12", "--forbid-clique", "3")[0] == 2
    for mode in ("spex", "ex"):
        code, out, err = run(capsys, "search", mode, "--n", "-1", "--forbid-clique", "3")
        assert code == 2 and out == ""
        assert "order must be nonnegative" in err
    code, out, err = run(capsys, "search", "spex", "--n", "5", "--non-r-partite", "0")
    assert code == 2 and out == "" and "require_non_r_partite needs r >= 1" in err
    code, out, err = run(capsys, "construct", "--family", "multipartite", "--parts", "1,x")
    assert code == 2 and out == "" and "argument --parts: expected comma-separated integers" in err
    code, out, err = run(capsys, "verify", "wilf", "--r", "3", "--n-max", "3")
    assert code == 2 and out == "" and err == "error: need r >= 1 and n-max > r\n"
    # a sweep over no order is refused, not reported as an empty pass
    for kind, max_n in [("nosal_book", "0"), ("sqrt_2m_bound", "-1"), ("liu_miao_U", "2")]:
        code, out, err = run(capsys, "scan", "--kind", kind, "--max-n", max_n)
        assert code == 2 and out == "" and "needs max_n >=" in err


@pytest.mark.parametrize("r", ["0", "1"])
def test_scan_sqrt_2m_small_r_is_a_usage_error(capsys, r):
    # r = 0 used to divide by zero (exit 3) before the book was checked
    code, out, err = run(capsys, "scan", "--kind", "sqrt_2m_bound", "--max-n", "4", "--r", r)
    assert (code, out) == (2, "")
    assert err == "error: forbid_book needs r >= 2 and k >= 1\n"


@pytest.mark.parametrize("argv,message", [
    (["check", "--book", "1,1"], "argument --book: need R >= 2 and K >= 1, got 1,1"),
    (["check", "--book", "3,0"], "argument --book: need R >= 2 and K >= 1, got 3,0"),
    (["check", "--book", "3,x"], "argument --book: expected R,K, got '3,x'"),
    (["check", "--rpartite", "0"], "argument --rpartite: must be >= 1, got 0"),
    (["spectrum", "--tol", "-1"], "argument --tol: tol must be positive and finite, got -1.0"),
    (["spectrum", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
])
def test_flag_values_are_refused_on_empty_input(capsys, argv, message):
    # checked at parse time: an empty input used to pass with exit 0
    code, out, err = run(capsys, *argv, "--in", os.devnull)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv,line,message", [
    (["check", "--color-critical"], "@", "colour-criticality needs at least one edge"),
    (["spectrum"], "?", "spectral radius needs at least one vertex"),
])
def test_graph_errors_name_their_line(capsys, monkeypatch, argv, line, message):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n\n" + line + "\n"))
    code, out, err = run(capsys, *argv, "--in", "-")
    assert code == 2 and len(out.splitlines()) == 1  # the triangle is answered first
    assert err == f"error: line 3: {message}\n"


def test_search_ex_csv_bytes(capsys):
    # two non-bipartite triangle-free graphs of order 8 tie at 13 edges
    code, out, _ = run(capsys, "search", "ex", "--n", "8", "--forbid-book", "2,1",
                       "--non-r-partite", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "n,objective,graph6,value,gap_to_runner_up,exhaustive\r\n"
        "8,edges,G?NNf_,13,1,True\r\n"
        "8,edges,G?`zv_,13,1,True\r\n"
    )


def test_search_spex_bytes(capsys):
    # a search names its champions by their certificate labelling, the census's
    # own
    code, out, _ = run(capsys, "search", "spex", "--n", "7", "--forbid-clique", "4")
    assert code == 0
    assert out == (
        '{"n": 7, "predicate": {"forbid_book": null, "require_non_r_partite": null'
        ', "require_connected": false, "forbid_clique": 4}, "objective": "rho"'
        ', "champions": [["FFz~o", 4.60555127546399]]'
        ', "gap_to_runner_up": 0.23326995219497348, "exhaustive": true'
        ', "graphs_scanned": 685, "feasible_count": 685, "ties_within_tol": []}\n'
    )


def test_scan_bytes(capsys):
    # a scan prints certificate strings in (order, edges, graph6) order
    code, out, _ = run(capsys, "scan", "--kind", "nosal_book", "--max-n", "6", "--k", "2")
    assert code == 0
    assert out == (
        '{"kind": "nosal_book", "params": {"max_n": 6, "k": 2}, "scanned": 107'
        ', "violations": [{"graph6": "Bw", "rho": 2.0, "bound": 1.7320508075688772}'
        ', {"graph6": "CJ", "rho": 2.0, "bound": 1.7320508075688772}, {"graph6": "CN"'
        ', "rho": 2.170086486626033, "bound": 2.0}, {"graph6": "D@K", "rho": 2.0'
        ', "bound": 1.7320508075688772}, {"graph6": "D@[", "rho": 2.170086486626033'
        ', "bound": 2.0}, {"graph6": "D@{", "rho": 2.3429230827771708'
        ', "bound": 2.23606797749979}, {"graph6": "DBk", "rho": 2.302775637731995'
        ', "bound": 2.23606797749979}, {"graph6": "DK{", "rho": 2.56155281280883'
        ', "bound": 2.449489742783178}, {"graph6": "DLs", "rho": 2.481194304092015'
        ', "bound": 2.449489742783178}, {"graph6": "E?CW", "rho": 2.0'
        ', "bound": 1.7320508075688772}, {"graph6": "E?Cw", "rho": 2.170086486626033'
        ', "bound": 2.0}, {"graph6": "E?Dw", "rho": 2.3429230827771708'
        ', "bound": 2.23606797749979}, {"graph6": "E?LW", "rho": 2.302775637731995'
        ', "bound": 2.23606797749979}, {"graph6": "E?Fw", "rho": 2.5141369293352906'
        ', "bound": 2.449489742783178}, {"graph6": "E@Pw", "rho": 2.56155281280883'
        ', "bound": 2.449489742783178}, {"graph6": "E@Tg", "rho": 2.481194304092015'
        ', "bound": 2.449489742783178}, {"graph6": "E@Rw", "rho": 2.7092753594369223'
        ', "bound": 2.6457513110645907}], "equality_witnesses": ["@", "A?", "A_"'
        ', "B?", "BG", "BW", "C?", "C@", "CB", "CF", "C]", "D??", "D?C", "D?K", "D?["'
        ', "D?{", "DBW", "D`K", "DFw", "E???", "E??G", "E??W", "E??w", "E?@w", "E?Ko"'
        ', "EGCW", "E?Bw", "E?\\\\o", "E?~o", "EFz_", "ELv_"]'
        ', "witnesses_all_complete_bipartite": false, "per_edge_champions": []}\n'
    )


@pytest.mark.parametrize("argv, digest", [
    (["liu_miao_U", "--max-n", "7"],
     "2d6ad293259c26b56e93dc7d97bc4026f51ac769e6c0b4e5b594ce2b016068d6"),
    (["sqrt_2m_bound", "--max-n", "7", "--r", "3", "--k", "1"],
     "91fe1b76703374bdc1eb7f72202ee89ee64e1e80fce67df12cc74cbdcfdc37a7"),
    (["liu_miao_U", "--max-n", "8"],
     "d663605ef023783c8952425bf9d9c743ef0876bc7ca90a0454ce79bb88f84a95"),
    (["nosal_book", "--max-n", "8", "--k", "2"],
     "4b05bc75e3d685ac9e3ebe7a4422ddf2dfe62b2e04cdac430288f2f37426adbc"),
    (["sqrt_2m_bound", "--max-n", "8", "--r", "3", "--k", "1"],
     "479782bbb8a1d5cb082ee4111f787a46b59c1c4647b9113ebbe6594b601ef1dd"),
    (["sqrt_2m_bound", "--max-n", "7", "--r", "2", "--k", "3"],
     "7e875dc704fdcfa19428e0586be01065801e8a85e472b19818eea330540f24da"),
], ids=["liu_miao_U", "sqrt_2m_bound", "liu_miao_U-8", "nosal_book-8", "sqrt_2m_bound-8",
        "sqrt_2m_bound-r2k3"])
def test_scan_digests(capsys, argv, digest):
    # sha256 of the whole stdout of a scan: each prints its violations,
    # witnesses and champions in (order, edges, graph6) order; sqrt_2m_bound
    # at r = 2, k = 3 prints 325 violations
    code, out, _ = run(capsys, "scan", "--kind", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def printed_rhos(doc: dict) -> list[tuple[str, float]]:
    """Every (graph6, rho) pair a search or scan prints: champions, violations
    and per-m champions."""
    pairs = [tuple(c) for c in doc.get("champions", [])]
    for d in doc.get("violations", []) + doc.get("per_edge_champions", []):
        pairs.append((d.get("graph6", d.get("champion_graph6")), d.get("rho", d.get("champion_rho"))))
    return pairs


@pytest.mark.parametrize("argv", [
    ["search", "spex", "--n", "8", "--forbid-clique", "4"],
    ["search", "spex", "--n", "8", "--forbid-book", "3,2", "--non-r-partite", "3"],
    ["search", "spex", "--n", "8", "--forbid-book", "3,1", "--non-r-partite", "3"],
    ["scan", "--kind", "nosal_book", "--max-n", "7"],
    ["scan", "--kind", "liu_miao_U", "--max-n", "7"],
    ["scan", "--kind", "sqrt_2m_bound", "--max-n", "7"],
], ids=["spex-K4", "spex-B32", "spex-B31", "nosal_book", "liu_miao_U", "sqrt_2m_bound"])
def test_printed_rho_is_the_rho_of_the_printed_graph(capsys, argv):
    # a relabelling can move rho's last digits, so every printed value must be
    # computed on the printed labelling to reproduce exactly
    code, out, _ = run(capsys, *argv)
    assert code == 0
    pairs = printed_rhos(json.loads(out))
    assert pairs
    for g6, rho in pairs:
        assert _rho(graph6_decode(g6)) == rho, g6


def test_sqrt_2m_scan_reports_no_violation_at_equality(capsys):
    # GJemnO has rho = sqrt(16) exactly, and eigh gives 4.0 on that labelling,
    # which the scan decides on and prints: at tol 0 it is no violation
    code, out, _ = run(capsys, "scan", "--kind", "sqrt_2m_bound", "--max-n", "8",
                       "--r", "2", "--k", "3", "--tol", "0")
    assert code == 0
    pairs = printed_rhos(json.loads(out))
    assert len(pairs) == 1428
    assert "GJemnO" not in {g6 for g6, _ in pairs}
    assert all(_rho(graph6_decode(g6)) == rho for g6, rho in pairs)


def test_check_digest_on_a_dense_to_sparse_sweep(capsys, monkeypatch):
    # sha256 of the whole stdout of check with every predicate on 40 seeded
    # G(n, p): n climbs from 24 to 40 while p falls from 0.5 to 0.1, so the
    # exact colouring meets dense small and sparse large graphs
    rng = np.random.default_rng(0)
    lines = []
    for i in range(0, 120, 3):
        p = 0.5 - 0.4 * ((i + 0.5) / 120) ** 1.5
        lines.append(graph6_encode(random_graph(24 + (17 * i) // 120, p, rng)) + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    code, out, _ = run(capsys, "check", "--in", "-", "--book", "3,2", "--rpartite", "3",
                       "--chromatic", "--color-critical")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "74f736c8f7ea95eed2adb2a6fc32652607ea546b7e6db6fca2a00eef0a8f82f4"
    )


@pytest.mark.parametrize("argv, digest", [
    (["wilf", "--r", "3", "--n-max", "200", "--trials", "200", "--seed", "0"],
     "2f8ab8ba7990aeeb2d0189633d5c288f22ec1abe3c672e40dea2350d73b27a95"),
    (["rotation", "--trials", "500", "--seed", "0"],
     "61f3df3c5676b22da28dd30a8dba62d61d2ed63ff8a9d5c1e1cb5199ac61d27f"),
], ids=["wilf", "rotation"])
def test_verify_random_suite_digests(capsys, argv, digest):
    # sha256 of the whole stdout; both draw their graphs through random_graphs
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_spectrum_digest_on_large_family_graphs(capsys, monkeypatch):
    # sha256 of the whole stdout; the two graphs are decoded from graph6
    text = graph6_encode(y_graph(3, 3200)) + "\n" + graph6_encode(turan(4, 1200)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "spectrum", "--in", "-")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "9c53047aa43dea7806143073011299ef9a3761028abbf929946f6d41797a7558"
    )


def test_search_spex_order_zero(capsys):
    # the order-0 graph is connected, with spectral radius 0
    code, out, err = run(capsys, "search", "spex", "--n", "0", "--connected")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["champions"] == [["?", 0.0]]
    assert doc["feasible_count"] == doc["graphs_scanned"] == 1


def _break_pipeline(monkeypatch, pipeline):
    """Make one check of a verify pipeline fail."""
    import dataclasses

    import spexlab.cli as cli_mod
    from spexlab.quotient import Lemma32Report, lemma32_polynomial
    from spexlab.search import FamilyScanReport

    if pipeline == "lemma32":
        fake = Lemma32Report(
            n=9, poly_match=False, mismatch_index=2, sign_ok=True,
            rho_quotient=1.0, rho_dense=1.0, rho_agree=True,
            above_lower_bound=True, scaled_polynomial=lemma32_polynomial(9),
        )
        monkeypatch.setattr(cli_mod, "verify_lemma32", lambda n: fake)
    elif pipeline == "lemma27":
        fake = FamilyScanReport(r=4, n=30, max_rho=22.0, argmax_is_y=True, configs_scanned=910,
                                gap_to_non_isomorphic=0.0, unique=False)
        monkeypatch.setattr(cli_mod, "lemma27_scan", lambda r, n: fake)
    elif pipeline == "lemma28":
        monkeypatch.setattr(cli_mod, "y_graph", turan)  # T_r(n) has n // r - 1 edges too many
    elif pipeline == "wilf":
        real = cli_mod.check_wilf
        monkeypatch.setattr(cli_mod, "check_wilf",
                            lambda g, r: dataclasses.replace(real(g, r), holds=False))
    else:
        monkeypatch.setattr(cli_mod, "rotate_edges", lambda g, u, v, s: g)


@pytest.mark.parametrize("argv, failed", [
    (["lemma32", "--n", "9"], {"mismatch_index": 2}),
    (["lemma27", "--r", "4", "--n", "30"], {"unique": False}),
    (["lemma28", "--r", "3", "--n-max", "8"], {"failures": [
        {"n": n, "identity": False, "lower_bound": True} for n in (6, 7, 8)]}),
    (["wilf", "--r", "3", "--n-max", "20", "--trials", "4"], {}),
    (["rotation", "--trials", "4"], {"min_gain": 0.0}),
], ids=["lemma32", "lemma27", "lemma28", "wilf", "rotation"])
def test_verify_failure_exit_code_and_json(capsys, monkeypatch, argv, failed):
    _break_pipeline(monkeypatch, argv[0])
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    doc = strict_json(out)  # failure output is still strict JSON
    assert list(doc)[-1] == "pass" and doc["pass"] is False
    assert {key: doc[key] for key in failed} == failed
    if "trials" in doc:  # every trial failed
        assert len(doc["failures"]) == doc["trials"]


def test_output_is_json_even_on_verification_failure(capsys):
    # a huge trial count is not needed; force a fail by checking an impossible
    # pipeline instead: lemma28 with r too small is a usage error (exit 2)
    code, _, err = run(capsys, "verify", "lemma28", "--r", "1", "--n-max", "10")
    assert code == 2 and "need r >= 2" in err


def test_check_order_zero_prints_an_empty_colouring(capsys, monkeypatch):
    # the order-0 graph is r-partite with the empty colouring, not with none
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
    code, out, _ = run(capsys, "check", "--in", "-", "--rpartite", "1")
    assert code == 0
    assert out == '{"order": 0, "size": 0, "rpartite": 1, "is_r_partite": true, "coloring": []}\n'
