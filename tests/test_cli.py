"""End-to-end command-line behaviour: formats, pipes, and exit codes."""

import json

import pytest

from spexlab.cli import main
from spexlab.graphs import graph6_decode, graph6_encode, turan, y_graph
from spexlab.search import canonical_graph6


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

    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(y_graph(3, 90)) + "\n"))
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


def test_search_ex_csv_bytes(capsys):
    # two non-bipartite triangle-free graphs of order 8 tie at 13 edges
    code, out, _ = run(capsys, "search", "ex", "--n", "8", "--forbid-book", "2,1",
                       "--non-r-partite", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "n,objective,graph6,value,gap_to_runner_up,exhaustive\r\n"
        "8,edges,G?FnV_,13,1,True\r\n"
        "8,edges,G?NNf_,13,1,True\r\n"
    )


def test_verify_failure_exit_code_and_json(capsys, monkeypatch):
    import spexlab.cli as cli_mod
    from spexlab.quotient import Lemma32Report, lemma32_polynomial

    fake = Lemma32Report(
        n=9, poly_match=False, mismatch_index=2, sign_ok=True,
        rho_quotient=1.0, rho_dense=1.0, rho_agree=True,
        above_lower_bound=True, scaled_polynomial=lemma32_polynomial(9),
    )
    monkeypatch.setattr(cli_mod, "verify_lemma32", lambda n: fake)
    code, out, _ = run(capsys, "verify", "lemma32", "--n", "9")
    assert code == 1
    doc = json.loads(out)  # failure output is still valid JSON
    assert doc["pass"] is False and doc["mismatch_index"] == 2


def test_output_is_json_even_on_verification_failure(capsys):
    # a huge trial count is not needed; force a fail by checking an impossible
    # pipeline instead: lemma28 with r too small is a usage error (exit 2)
    code, _, err = run(capsys, "verify", "lemma28", "--r", "1", "--n-max", "10")
    assert code == 2 and "need r >= 2" in err
