import json
import warnings

import numpy as np
import pytest

from hoim.cli import main
from hoim.hypercut import CutSystem
from hoim.instances import format_hypergraph, generate_random_hypergraph, parse_dimacs, parse_hypergraph
from hoim.naesat import NaeSystem


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


def test_solve_rejects_k_below_2(hyp_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--problem", "hyper-maxcut", "--k", "1", "--input", str(hyp_file)])
    assert excinfo.value.code == 2
    assert "--k must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--k", "3"), ("--sigma", "0.01")])
@pytest.mark.parametrize("command", ["solve", "audit"])
def test_nae_sat_rejects_cut_only_flags(nae_file, command, flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--problem", "nae-sat", "--input", str(nae_file), flag, value])
    assert excinfo.value.code == 2
    assert f"{flag} applies to hyper-maxcut only" in capsys.readouterr().err


def test_solve_missing_input_exits_2(tmp_path):
    assert main(["solve", "--problem", "nae-sat", "--input", str(tmp_path / "nope.cnf")]) == 2


@pytest.mark.parametrize("name", ["missing/x.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_solve_unwritable_output_exits_2_before_the_solve(nae_file, tmp_path, flag, name,
                                                          monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("run must not be called")

    monkeypatch.setattr("hoim.cli.run", no_solve)
    target = tmp_path / name
    assert main(["solve", "--problem", "nae-sat", "--input", str(nae_file), flag, str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0]
    assert [p.name for p in tmp_path.iterdir()] == [nae_file.name]


@pytest.mark.parametrize("name", ["nae.cnf", "./nae.cnf", "link.cnf"], ids=["same", "dot", "symlink"])
@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_solve_output_naming_the_input_exits_2_before_the_solve(nae_file, tmp_path, flag, name,
                                                                monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("run must not be called")

    monkeypatch.setattr("hoim.cli.run", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.cnf").symlink_to(nae_file)
    before = nae_file.read_bytes()
    assert main(["solve", "--problem", "nae-sat", "--input", str(nae_file), flag, name]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
    assert nae_file.read_bytes() == before


@pytest.mark.parametrize("trace", ["r.out", "./r.out", "link.out"], ids=["same", "dot", "symlink"])
def test_solve_out_and_trace_on_one_file_exits_2_before_the_solve(nae_file, tmp_path, trace,
                                                                  monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("run must not be called")

    monkeypatch.setattr("hoim.cli.run", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.out").symlink_to(tmp_path / "r.out")  # dangling until r.out exists
    assert main(["solve", "--problem", "nae-sat", "--input", str(nae_file),
                 "--out", "r.out", "--trace", trace]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and trace in err[0]
    assert not (tmp_path / "r.out").exists()


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


@pytest.mark.parametrize("problem, text, code, message", [
    # a literal or node past int64 is out of range, shown whole
    pytest.param("nae-sat", "p cnf 4 1\n1 2 3 1234567890123456789012345 0\n", 2,
                 "error: clause 1: literal 1234567890123456789012345 out of range 1..4", id="cnf-past-int64"),
    pytest.param("nae-sat", "p cnf 4 1\n1 2 -1234567890123456789012345 4 0\n", 2,
                 "error: clause 1: literal -1234567890123456789012345 out of range 1..4", id="cnf-negative-past-int64"),
    pytest.param("hyper-maxcut", "p hyp 4 1\n1 1234567890123456789012345 0\n", 2,
                 "error: hyperedge 1: node 1234567890123456789012345 out of range 1..4", id="hyp-past-int64"),
    # data tokens and header fields are ASCII signed decimals: int() would read
    # underscores and other scripts' digits, DIMACS does not
    pytest.param("nae-sat", "p cnf 4 1\n1 2 3 1_0 0\n", 2,
                 "error: line 2: non-integer token in '1 2 3 1_0 0'", id="underscore"),
    pytest.param("nae-sat", "c x\np cnf 4 1\n1 2 3 \u0664 0\n", 2,
                 "error: line 3: non-integer token in '1 2 3 \u0664 0'", id="arabic-indic-digit"),
    pytest.param("nae-sat", "p cnf 1_0 1\n1 2 0\n", 2,
                 "error: line 1: non-integer header fields in 'p cnf 1_0 1'", id="header-underscore"),
    pytest.param("nae-sat", "c x\np cnf \u0664 1\n1 2 0\n", 2,
                 "error: line 2: non-integer header fields in 'p cnf \u0664 1'", id="header-arabic-indic-digit"),
    pytest.param("hyper-maxcut", "p hyp 4 1\n1 +-2 0\n", 2,
                 "error: line 2: non-integer token in '1 +-2 0'", id="two-signs"),
    # any whitespace str.split splits on separates tokens: tabs, runs of spaces, a no-break space
    pytest.param("nae-sat", "p cnf 4 1\n1\t-2 \t 3\xa04\t0\n", 0, None, id="cnf-separators"),
    pytest.param("hyper-maxcut", "p hyp 4 2\n\t1\t2  0\n+3 4\t0\n", 0, None, id="hyp-separators"),
])
def test_instance_dialect_and_overflow(tmp_path, problem, text, code, message, capsys):
    path = tmp_path / "dialect.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["oracle", "--problem", problem, *(["--k", "2"] * (problem == "hyper-maxcut")),
                 "--input", str(path)]) == code
    if message is not None:
        assert capsys.readouterr().err.splitlines() == [message]


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


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_sigma_whose_square_underflows_exits_2(hyp_file, command, capsys):
    # 2*sigma**2 == 0 (1e-300) would read 0/0 in every penalty bump, and a subnormal
    # 2*sigma**2 (1e-160) would overflow the bump exponent: exit 2 before any step
    for sigma in ("1e-300", "1e-160"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--problem", "hyper-maxcut", "--k", "3", "--input", str(hyp_file),
                         "--steps", "10", "--sigma", sigma]) == 2
        assert capsys.readouterr().err.startswith(f"error: sigma {sigma} is too small")


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "nae-sat", "--steps", "10"],
    ["audit", "--problem", "nae-sat", "--steps", "10"],
    ["generate", "planted-nae", "--vars", "12", "--clauses", "25", "--k", "4"],
    ["generate", "hypergraph", "--nodes", "8", "--edges", "14"],
], ids=["solve", "audit", "planted-nae", "hypergraph"])
def test_negative_seed_exits_2(nae_file, tmp_path, argv, capsys):
    where = ["--input", str(nae_file)] if argv[0] != "generate" else ["--out", str(tmp_path / "x")]
    assert main([*argv, *where, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be non-negative")


@pytest.mark.parametrize("target", ["0", "-3"])
def test_target_below_1_exits_2(nae_file, target, capsys):
    # every restart would meet it at step 0 and report its random initial state
    assert main(["solve", "--problem", "nae-sat", "--input", str(nae_file),
                 "--steps", "10", "--target", target]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: target must be >= 1"]


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


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("problem", ["nae-sat", "hyper-maxcut"])
def test_instance_too_large_to_allocate_exits_2(nae_file, hyp_file, command, problem,
                                                monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    if problem == "nae-sat":
        monkeypatch.setattr(NaeSystem, "from_instance", too_large)
        args = ["--input", str(nae_file)]
    else:
        monkeypatch.setattr(CutSystem, "from_hypergraph", too_large)
        args = ["--input", str(hyp_file), "--k", "3"]
    assert main([command, "--problem", problem, *args, "--steps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 74.5 GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("problem, flag, value", [
    ("nae-sat", "--harmonic", "5e307"),
    ("nae-sat", "--harmonic", "1e308"),
    ("nae-sat", "--coupling", "1e307"),
    ("hyper-maxcut", "--coupling", "1e308"),
    ("hyper-maxcut", "--harmonic", "1e308"),
])
def test_constants_whose_energy_bound_overflows_exit_2(nae_file, hyp_file, command, problem, flag, value,
                                                       capsys):
    # C*M*2^(K-1) + C_s*N (NAE, 12/25 K=4) or A*M*W + A_s*N (cut, 8/14 with W=6 slots
    # per edge) past float max: exit 2 at build, before any step, and without a warning
    args = ["--input", str(nae_file)] if problem == "nae-sat" else ["--input", str(hyp_file), "--k", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--problem", problem, *args, flag, value, "--steps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coupling ") and "too large" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("problem, flag, scale", [
    ("nae-sat", "--harmonic", 12),
    ("nae-sat", "--coupling", 25 * 8),
    ("hyper-maxcut", "--harmonic", 8),
    ("hyper-maxcut", "--coupling", 14 * 6),
])
def test_constants_just_inside_the_energy_bound_run(nae_file, hyp_file, command, problem, flag, scale,
                                                    capsys):
    # the constant times its count (N, M*2^(K-1) or M*W) is 0.99 of float max
    args = ["--input", str(nae_file)] if problem == "nae-sat" else ["--input", str(hyp_file), "--k", "3"]
    value = repr(0.99 * float(np.finfo(float).max) / scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--problem", problem, *args, flag, value, "--steps", "10", "--seed", "1"])
    out, err = capsys.readouterr()
    # such constants make the default dt unstable, so the audit may fail (exit 1), but it runs
    assert err == "" and code in ((0,) if command == "solve" else (0, 1))
    assert out.splitlines()[-1].startswith("best metric" if command == "solve" else "audit ")


@pytest.mark.parametrize("command, target", [("solve", "run"), ("audit", "lyapunov_audit")])
@pytest.mark.parametrize("error", [RuntimeError, FloatingPointError])
def test_internal_numerical_failure_exits_1(nae_file, command, target, error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("non-finite drift in restart 0 at step 1")

    monkeypatch.setattr(f"hoim.cli.{target}", fail)
    assert main([command, "--problem", "nae-sat", "--input", str(nae_file), "--steps", "10"]) == 1
    assert capsys.readouterr().err.splitlines() == ["internal error: non-finite drift in restart 0 at step 1"]


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_header_past_numpy_integers_exits_2(tmp_path, command, capsys):
    # N*N passes numpy's integers: the build refuses N before anything is allocated
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 99999999999 1\n1 2 0\n")
    assert main([command, "--problem", "nae-sat", "--input", str(path), "--steps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance too large")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_header_past_numpy_integers_on_the_index_path_exits_2(tmp_path, command, capsys):
    # K = 4 takes the index form, which has no N x N table, as K = 2 does past
    # DENSE_N; the build refuses the same N on every form, before it allocates anything
    path = tmp_path / "huge4.cnf"
    path.write_text("p cnf 99999999999 1\n1 2 3 4 0\n")
    assert main([command, "--problem", "nae-sat", "--input", str(path), "--steps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance too large") and "pass numpy's integers" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_cut_pair_keys_past_numpy_integers_exit_2(tmp_path, command, capsys):
    # the pair key 3999999998 * N + 3999999999 would wrap in int64; the build
    # refuses N before it allocates anything per node
    path = tmp_path / "huge.hyp"
    path.write_text("p hyp 4000000000 1\n3999999999 4000000000 0\n")
    assert main([command, "--problem", "hyper-maxcut", "--k", "3", "--input", str(path), "--steps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance too large to allocate") and "pass numpy's integers" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("problem", ["nae-sat", "hyper-maxcut"])
def test_solve_reads_input_behind_a_byte_order_mark(nae_file, hyp_file, tmp_path, problem):
    source, extra = (nae_file, []) if problem == "nae-sat" else (hyp_file, ["--k", "3"])
    path = tmp_path / f"bom{source.suffix}"
    path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert main(["solve", "--problem", problem, "--input", str(path), *extra, "--steps", "10"]) == 0


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


def test_audit_lines_stay_short_at_a_huge_energy_change(tmp_path, capsys):
    # a harmonic strength just inside the energy bound of a 20/50 K = 4 file moves
    # the energy by about 7e306, which a fixed-point figure prints digit by digit
    path = tmp_path / "f.cnf"
    assert main(["generate", "planted-nae", "--vars", "20", "--clauses", "50", "--k", "4",
                 "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    main(["audit", "--problem", "nae-sat", "--input", str(path), "--harmonic", "8.8e306"])
    out = capsys.readouterr().out
    assert "\ntotal energy change 7.249e+306\n" in out  # in the other figures' :.3e form
    assert all(len(line) < 80 for line in out.splitlines())


def test_solve_lines_stay_short_at_a_huge_energy(tmp_path, capsys):
    # the same harmonic strength leaves a final energy near 1e307, whose fixed-point
    # figure would print every integer digit
    path, out_path = tmp_path / "f.cnf", tmp_path / "r.json"
    assert main(["generate", "planted-nae", "--vars", "20", "--clauses", "50", "--k", "4",
                 "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--problem", "nae-sat", "--input", str(path), "--harmonic", "8.8e306",
                 "--steps", "10", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert all(len(line) < 80 for line in out.splitlines())
    printed = float(out.split("final energy ")[1])
    assert printed == pytest.approx(json.loads(out_path.read_text())["final_energy"], rel=1e-6)


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
