import json

import numpy as np
import pytest

from hoim.cli import main
from hoim.instances import format_hypergraph, generate_random_hypergraph, parse_dimacs, parse_hypergraph


@pytest.fixture
def nae_file(tmp_path):
    path = tmp_path / "nae.cnf"
    assert main(["generate", "planted-nae", "--vars", "12", "--clauses", "25", "--k", "4",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture
def hyp_file(tmp_path):
    path = tmp_path / "graph.hyp"
    assert main(["generate", "hypergraph", "--nodes", "8", "--edges", "14", "--min", "2",
                 "--max", "4", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_generate_planted_nae_valid_and_reproducible(nae_file, tmp_path):
    text = nae_file.read_text()
    inst = parse_dimacs(text)
    assert inst.num_vars == 12 and inst.num_clauses == 25 and inst.k == 4
    assert "plant:" in text
    again = tmp_path / "again.cnf"
    main(["generate", "planted-nae", "--vars", "12", "--clauses", "25", "--k", "4",
          "--seed", "3", "--out", str(again)])
    assert again.read_text() == text


def test_generate_hypergraph_valid_and_reproducible(hyp_file, tmp_path):
    graph = parse_hypergraph(hyp_file.read_text())
    assert graph.num_nodes == 8 and graph.num_edges == 14
    again = tmp_path / "again.hyp"
    main(["generate", "hypergraph", "--nodes", "8", "--edges", "14", "--min", "2",
          "--max", "4", "--seed", "3", "--out", str(again)])
    assert again.read_text() == hyp_file.read_text()


def test_generate_rejects_bad_sizes(tmp_path):
    code = main(["generate", "planted-nae", "--vars", "2", "--clauses", "5", "--k", "4",
                 "--seed", "0", "--out", str(tmp_path / "x.cnf")])
    assert code == 2


def test_solve_nae_writes_result_and_trace(nae_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--problem", "nae-sat", "--input", str(nae_file),
                 "--steps", "3000", "--restarts", "5", "--seed", "1", "--target", "25",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    assert "best metric" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["config"]["problem"] == "nae-sat"
    assert document["config"]["coupling"] == 1.25
    assert document["config"]["harmonic"] == 5.0
    assert document["config"]["constants_tabulated"] is True
    assert document["metric_maximum"] == 25
    assert set(document["best_assignment"]) == {str(i) for i in range(1, 13)}
    assert len(document["restarts"]) == 5

    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "restart,step,energy,metric"
    rows = [line.split(",") for line in lines[1:]]
    seen = {}
    for restart, step, energy, metric in rows:
        float(energy)
        assert 0 <= int(metric) <= 25
        prev = seen.setdefault(int(restart), -1)
        assert int(step) > prev
        seen[int(restart)] = int(step)


def test_solve_reaches_oracle_optimum_on_hypergraph(hyp_file, tmp_path):
    from hoim.oracle import brute_force_maxkcut

    graph = parse_hypergraph(hyp_file.read_text())
    best, _ = brute_force_maxkcut(graph, 3)
    out = tmp_path / "r.json"
    code = main(["solve", "--problem", "hyper-maxcut", "--k", "3", "--input", str(hyp_file),
                 "--steps", "5000", "--restarts", "10", "--seed", "0",
                 "--target", str(best), "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["best_metric"] == best
    assert document["config"]["sigma"] == 1e-3


def test_solve_requires_k_for_hypergraph(hyp_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--problem", "hyper-maxcut", "--input", str(hyp_file)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag, value", [("--k", "3"), ("--sigma", "0.01")])
@pytest.mark.parametrize("command", ["solve", "audit"])
def test_nae_sat_rejects_cut_only_flags(nae_file, command, flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--problem", "nae-sat", "--input", str(nae_file), flag, value])
    assert excinfo.value.code == 2
    assert f"{flag} applies to hyper-maxcut only" in capsys.readouterr().err


def test_solve_missing_input_exits_2(tmp_path):
    assert main(["solve", "--problem", "nae-sat", "--input", str(tmp_path / "nope.cnf")]) == 2


def test_solve_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 1 0\n")
    assert main(["solve", "--problem", "nae-sat", "--input", str(bad)]) == 2


def test_solve_accepts_satlib_trailer(tmp_path):
    path = tmp_path / "satlib.cnf"
    path.write_text("p cnf 4 2\n1 -2 3 4 0\n-1 2 -3 4 0\n%\n0\n")
    assert main(["solve", "--problem", "nae-sat", "--input", str(path),
                 "--steps", "200", "--restarts", "2"]) == 0


def test_solve_percent_inside_clause_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 4 2\n1 -2 3 4 0\n-1 2 % -3 4 0\n")
    assert main(["solve", "--problem", "nae-sat", "--input", str(path)]) == 2
    assert "non-integer token" in capsys.readouterr().err


def test_solve_clause_width_past_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 9 1\n1 -2 3 4 5 6 7 8 9 0\n")
    assert main(["solve", "--problem", "nae-sat", "--input", str(path), "--steps", "10"]) == 2
    assert "clause width 9 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, message", [
    ("solve", "--dt", "nan", "dt"), ("solve", "--dt", "inf", "dt"),
    ("audit", "--dt", "nan", "dt"), ("audit", "--dt", "inf", "dt"),
    ("solve", "--noise", "nan", "noise_amplitude"),
])
def test_non_finite_step_or_noise_exits_2(nae_file, command, flag, value, message, capsys):
    assert main([command, "--problem", "nae-sat", "--input", str(nae_file),
                 "--steps", "10", flag, value]) == 2
    assert f"error: {message} must be" in capsys.readouterr().err


def test_solve_rerun_from_config_echo_is_bit_identical(nae_file, tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        trace = tmp_path / f"{tag}.csv"
        args = ["solve", "--problem", "nae-sat", "--input", str(nae_file),
                "--steps", "2000", "--restarts", "3", "--seed", "7",
                "--out", str(out), "--trace", str(trace)]
        if tag == "b":
            # rebuild the command line from the first run's config echo
            echo = json.loads((tmp_path / "a.json").read_text())["config"]
            args = ["solve", "--problem", echo["problem"], "--input", echo["input"],
                    "--coupling", repr(echo["coupling"]), "--harmonic", repr(echo["harmonic"]),
                    "--dt", repr(echo["dt"]), "--steps", str(echo["steps"]),
                    "--noise", repr(echo["noise_amplitude"]), "--schedule", echo["noise_schedule"],
                    "--restarts", str(echo["restarts"]), "--seed", str(echo["seed"]),
                    "--record-every", str(echo["record_every"]),
                    "--out", str(out), "--trace", str(trace)]
        assert main(args) == 0
        paths.append((out, trace))
    assert paths[0][0].read_text() == paths[1][0].read_text()
    assert paths[0][1].read_text() == paths[1][1].read_text()


def test_oracle_command_nae(nae_file, capsys):
    assert main(["oracle", "--problem", "nae-sat", "--input", str(nae_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("optimum 25/25")  # planted instances are satisfiable


def test_oracle_command_hypergraph(hyp_file, capsys):
    assert main(["oracle", "--problem", "hyper-maxcut", "--k", "2", "--input", str(hyp_file)]) == 0
    assert "optimum" in capsys.readouterr().out


def test_oracle_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "big.cnf"
    main(["generate", "planted-nae", "--vars", "30", "--clauses", "10", "--k", "3",
          "--seed", "0", "--out", str(path)])
    assert main(["oracle", "--problem", "nae-sat", "--input", str(path)]) == 2
    assert "24" in capsys.readouterr().err


def test_audit_nae_passes(nae_file, capsys):
    assert main(["audit", "--problem", "nae-sat", "--input", str(nae_file),
                 "--steps", "1000", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_audit_hypergraph_passes(hyp_file, capsys):
    assert main(["audit", "--problem", "hyper-maxcut", "--k", "3", "--input", str(hyp_file),
                 "--steps", "1000", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_audit_huge_dt_fails(nae_file, capsys):
    assert main(["audit", "--problem", "nae-sat", "--input", str(nae_file),
                 "--steps", "200", "--dt", "1.0", "--seed", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_audit_hypergraph_unstable_dt_fails(tmp_path, capsys):
    # once phases settle every cut pair sits on a bump centre; the audit must
    # still see the frozen energy rise at an unstable dt
    path = tmp_path / "big.hyp"
    path.write_text(format_hypergraph(generate_random_hypergraph(200, 400, 2, 4, seed=1)))
    audit = ["audit", "--problem", "hyper-maxcut", "--k", "3", "--input", str(path),
             "--steps", "300"]
    assert main(audit + ["--dt", "0.05"]) == 1
    assert "audit FAIL" in capsys.readouterr().out.splitlines()
    assert main(audit) == 0
    assert "audit PASS" in capsys.readouterr().out.splitlines()
