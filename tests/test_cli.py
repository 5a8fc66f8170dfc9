import hashlib
import json
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from sio_lab import cli, kernels, metric
from sio_lab.cli import main


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_generate_and_good_radii(tmp_path, capsys):
    code, out = run(["generate", "--family", "four_corner_cantor",
                     "--level", "2", "--out-dir", str(tmp_path),
                     "--out", "m.json"], capsys)
    assert code == 0 and "16 atoms" in out

    measure = str(tmp_path / "m.json")
    code, out = run(["good-radii", "--measure", measure, "--center", "0",
                     "--lambda", "5", "--depth", "1",
                     "--materialize", "good.json",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.load(open(tmp_path / "good.json"))
    assert data["total_length"][1] > 0
    lo_n, lo_d, hi_n, hi_d = data["intervals"][0]
    assert lo_n * hi_d <= hi_n * lo_d

    code, out = run(["good-radii", "--measure", measure, "--center", "0",
                     "--lambda", "5", "--depth", "2", "--near", "0.4"],
                    capsys)
    assert code == 0 and "/" in out

    code, out = run(["good-radii", "--measure", measure, "--center", "0",
                     "--lambda", "5", "--depth", "1", "--test", "0.04"],
                    capsys)
    assert code == 1 and "gridline_shell" in out


def test_check_growth_and_kernel(tmp_path, capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    measure = str(tmp_path / "m.json")
    code, out = run(["check-growth", "--measure", measure,
                     "--r-min", "0.05"], capsys)
    assert code == 0 and "c_mu" in out
    code, out = run(["check-kernel", "--measure", measure], capsys)
    assert code == 0 and "PASS  kernel_antisymmetry" in out


def test_check_growth_rejects_an_asymmetric_table(tmp_path, capsys):
    """d(0, 1) = 1 but d(1, 0) = 2: a usage error (exit 2), no certificate."""
    cloud = {"metric": {"family": "custom_table", "dimension": 1},
             "points": [{"id": i, "coords": [float(i)]} for i in range(3)],
             "distances": [[0.0, 1.0, 5.0], [2.0, 0.0, 1.0],
                           [5.0, 1.0, 0.0]]}
    with open(tmp_path / "m.json", "w") as fh:
        json.dump({"cloud": cloud, "weights": [1 / 3] * 3}, fh)
    with pytest.raises(SystemExit) as exc:
        main(["check-growth", "--measure", str(tmp_path / "m.json"),
              "--r-min", "0.05"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "d(0, 1) = 1.0 but d(1, 0) = 2.0" in captured.err
    assert "c_mu" not in captured.out


def test_check_growth_rejects_a_table_breaking_the_triangle_inequality(
        tmp_path, capsys):
    """Symmetric, but d(0, 2) = 5 > d(0, 1) + d(1, 2) = 2: exit 2."""
    cloud = {"metric": {"family": "custom_table", "dimension": 1},
             "points": [{"id": i, "coords": [float(i)]} for i in range(3)],
             "distances": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0],
                           [5.0, 1.0, 0.0]]}
    with open(tmp_path / "m.json", "w") as fh:
        json.dump({"cloud": cloud, "weights": [1 / 3] * 3}, fh)
    with pytest.raises(SystemExit) as exc:
        main(["check-growth", "--measure", str(tmp_path / "m.json"),
              "--r-min", "0.05"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "d(0, 2) = 5.0 > d(0, 1) + d(1, 2) = 1.0 + 1.0, excess 3.0" \
        in captured.err
    assert "c_mu" not in captured.out


@pytest.mark.parametrize("command, flags, match", [
    ("check-kernel", ["--riesz-i", "3"],
     "Riesz coordinate index 3 is out of range for dimension 2"),
    ("converge", ["--level", "2", "--riesz-i", "3"],
     "Riesz coordinate index 3 is out of range for dimension 2"),
    ("check-growth", ["--r-min", "nan"],
     "r_min must be finite and positive, got nan"),
    ("check-growth", ["--r-min", "inf"],
     "r_min must be finite and positive, got inf"),
    ("check-growth", ["--r-min", "0.05", "--s", "nan"],
     "s must be finite and positive, got nan"),
    ("check-growth", ["--r-min", "0.05", "--s", "-1"],
     "s must be finite and positive, got -1.0"),
    ("check-kernel", ["--s", "nan"], "s must be finite and positive, got nan"),
    ("check-kernel", ["--riesz-n", "0"],
     "Riesz exponent n must be an int >= 1, got 0"),
    ("check-kernel", ["--riesz-n", "-2"],
     "Riesz exponent n must be an int >= 1, got -2"),
    ("converge", ["--level", "2", "--riesz-n", "0"],
     "Riesz exponent n must be an int >= 1, got 0")])
def test_out_of_range_kernel_and_growth_inputs_are_usage_errors(
        tmp_path, capsys, command, flags, match):
    # formerly an IndexError (exit 1), or a c_mu of -inf, 0.0 or nan; a
    # Riesz exponent below 1 formerly certified a kernel that is no Riesz
    # kernel, with exit 0
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    where = ["--out-dir", str(tmp_path / "out")] if command == "converge" \
        else ["--measure", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, *where, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert match in captured.err
    assert "c_mu" not in captured.out and "PASS" not in captured.out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_rejects_a_uniform_count_below_two(tmp_path, capsys, count):
    # formerly a ZeroDivisionError (0) or numpy's ValueError (-3): exit 1
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "uniform_random", "--count", count,
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"count must be >= 2, got {count}" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_are_a_usage_error(tmp_path, capsys, threads):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with pytest.raises(SystemExit) as exc:  # formerly ran, exit 0
        main(["check-growth", "--measure", str(tmp_path / "m.json"),
              "--r-min", "0.05", "--threads", threads])
    assert exc.value.code == 2
    assert f"must be >= 1, got {threads}" in capsys.readouterr().err


# formerly each exited 1 with a traceback
@pytest.mark.parametrize("command, file, content, match", [
    ("check-growth", "--measure", "no weights",
     "measure JSON has the wrong shape: KeyError: 'weights'"),
    ("check-growth", "--measure", [1, 2],
     "measure JSON has the wrong shape: TypeError"),
    ("check-growth", "--measure", "text weights",
     "measure JSON has the wrong shape: ValueError"),
    ("check-growth", "--measure", "ragged coords",
     "cloud JSON has the wrong shape: ValueError"),
    ("check-growth", "--measure",
     {"cloud": {"metric": {"family": "custom_table", "dimension": 1},
                "points": [{"id": 0, "coords": [0.0]},
                           {"id": 1, "coords": [1.0]}],
                "distances": [[0.0, 1.0], [1.0]]},
      "weights": [0.5, 0.5]},
     "cloud JSON has the wrong shape: ValueError"),
    ("report", "--summary", {"checks": [{"name": "c", "lhs": 1.0}]},
     "has the wrong shape: TypeError"),
    ("report", "--summary", [{"checks": []}],
     "has the wrong shape: AttributeError"),
    ("pairing", "--f", {"terms": [{"coeff": 1.0, "radius": 0.4}]},
     "simple function JSON has the wrong shape: KeyError: 'center'")],
    ids=["measure-without-weights", "measure-list", "text-weights",
         "ragged-coords", "ragged-table", "check-without-rhs", "summary-list",
         "term-without-center"])
def test_json_of_the_wrong_shape_is_a_usage_error_naming_its_file(
        tmp_path, capsys, command, file, content, match):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    if isinstance(content, str):  # the generated measure, broken
        measure = json.loads((tmp_path / "m.json").read_text())
        if content == "no weights":
            del measure["weights"]
        elif content == "text weights":
            measure["weights"][0] = "heavy"
        else:
            measure["cloud"]["points"][3]["coords"] = [0.1]
        content = measure
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"terms": [{"coeff": 1.0, "center": 0,
                                        "radius": 0.4}]}))
    flags = {"check-growth": ["--measure", str(path), "--r-min", "0.05"],
             "report": ["--summary", str(path)],
             "pairing": ["--measure", str(tmp_path / "m.json"),
                         "--f", str(path), "--g", str(g),
                         "--out-dir", str(tmp_path)]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(path) in err and match in err


@pytest.mark.parametrize("argv, match", [
    (["generate", "--level", "9"], "level 9 exceeds 65536 atoms"),
    (["converge", "--level", "9"], "level 9 exceeds 65536 atoms"),
    (["good-radii", "--center", "0", "--lambda", "16", "--depth", "4",
      "--materialize", "good.json"], "maximum feasible depth is 2")],
    ids=["generate", "converge", "good-radii"])
def test_a_budget_overrun_is_a_usage_error_naming_the_limit(
        tmp_path, capsys, argv, match):
    # formerly a BudgetError traceback: exit 1
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    if argv[0] == "good-radii":
        argv = [*argv, "--measure", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert match in capsys.readouterr().err


def test_pairing_trace_csv(tmp_path, capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    for name, terms in (("f.json", [{"coeff": 1.0, "center": 0,
                                     "radius": 0.4}]),
                        ("g.json", [{"coeff": -0.5, "center": 15,
                                     "radius": 0.3}])):
        with open(tmp_path / name, "w") as fh:
            json.dump({"terms": terms}, fh)
    code, out = run(["pairing", "--measure", str(tmp_path / "m.json"),
                     "--f", str(tmp_path / "f.json"),
                     "--g", str(tmp_path / "g.json"),
                     "--eps-grid", "geometric:start=0.5,ratio=0.5,count=5",
                     "--out-dir", str(tmp_path), "--out", "trace.csv"],
                    capsys)
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "epsilon,pairing,cauchy_diff,four_term_bound"
    assert len(lines) == 6


def test_converge_and_report(tmp_path, capsys):
    code, out = run(["converge", "--level", "3", "--depth", "2",
                     "--balls", "3", "--eps-count", "5",
                     "--levels-back", "1", "--out-dir", str(tmp_path)],
                    capsys)
    assert code == 0 and "all checks passed" in out
    code, out = run(["report", "--summary", str(tmp_path / "summary.json")],
                    capsys)
    assert code == 0 and "checks passed" in out


def test_config_file_defaults(tmp_path, capsys):
    cfg = {"level": 2, "out": "from_config.json"}
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump(cfg, fh)
    code, out = run(["generate", "--config", str(tmp_path / "cfg.json"),
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "16 atoms" in out
    assert (tmp_path / "from_config.json").exists()
    # explicit flag overrides the file
    code, out = run(["generate", "--config", str(tmp_path / "cfg.json"),
                     "--level", "1", "--out-dir", str(tmp_path),
                     "--out", "explicit.json"], capsys)
    assert code == 0 and "4 atoms" in out


def test_flag_typed_at_its_default_beats_the_config(tmp_path, capsys,
                                                    monkeypatch):
    from sio_lab import cli
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump({"count": 10, "family": "uniform_random"}, fh)
    cfg = str(tmp_path / "cfg.json")
    # --count 64 is the flag's default value, typed on purpose
    code, out = run(["generate", "--config", cfg, "--count", "64",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "64 atoms" in out
    code, out = run(["generate", "--config", cfg,
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "10 atoms" in out
    # generate takes no --threads, so converge gets a config of its own
    with open(tmp_path / "converge.json", "w") as fh:
        json.dump({"count": 10, "threads": 2, "family": "uniform_random"}, fh)
    seen = []
    monkeypatch.setattr(cli, "cmd_converge", lambda args: seen.append(
        (args.threads, args.count)) or 0)
    assert main(["converge", "--config", str(tmp_path / "converge.json"),
                 "--threads", "1"]) == 0
    assert seen == [(1, 10)]


def config_error(tmp_path, capsys, command, cfg) -> str:
    """The usage error (exit 2) of `command` run with the config file cfg
    and its required flags typed."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump(cfg, fh)
    flags = {"check-growth": ["--measure", str(tmp_path / "m.json"),
                              "--r-min", "0.05"],
             "check-kernel": ["--measure", str(tmp_path / "m.json")],
             "generate": ["--out-dir", str(tmp_path)]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "cfg.json"), *flags])
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, match", [
    ("check-growth", {"threads": 0},
     "argument --threads: must be >= 1, got 0"),
    ("generate", {"level": 4.5},
     "argument --level: invalid int value: '4.5'"),
    ("check-kernel", {"kernel": "other"},
     "argument --kernel: invalid choice: 'other' (choose from 'riesz', "
     "'custom')")])
def test_config_values_are_typed_like_flags(tmp_path, capsys, command, cfg,
                                            match):
    """A file value goes through its flag's type and choices as its JSON
    text, as if typed: what the flag refuses, the file does too."""
    assert match in config_error(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("cfg, key", [({"thread": 0}, "thread"),
                                      ({"help": True}, "help"),
                                      ({"config": "other.json"}, "config")])
def test_a_config_key_must_name_a_flag(tmp_path, capsys, cfg, key):
    """A misspelled key is a usage error that names it, as are help and
    config, which no file can set."""
    err = config_error(tmp_path, capsys, "check-growth", cfg)
    assert f"config key {key!r} names no flag" in err


def test_a_config_file_must_hold_an_object(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "check-growth", [1])
    assert "must hold a JSON object" in err


@pytest.mark.parametrize("text", [None, '{"measure": '],
                         ids=["missing", "malformed"])
def test_a_config_file_must_be_readable_json(tmp_path, capsys, text):
    """A missing file, or one that holds no valid JSON, is a usage error
    naming the file, not a traceback."""
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["check-growth", "--config", str(path)])
    assert exc.value.code == 2
    assert f"config file {path}" in capsys.readouterr().err


def test_a_config_key_is_the_flag_name_or_its_dest(tmp_path, capsys):
    """{"lambda": 7} and {"lam": 7} give what --lambda 7 gives."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    query = ["good-radii", "--measure", str(tmp_path / "m.json"),
             "--center", "0", "--near", "0.4"]
    code, want = run([*query, "--lambda", "7"], capsys)
    assert code == 0 and want == "94119/235298 (= 0.39999915001402475)\n"
    for key in ("lambda", "lam"):
        with open(tmp_path / "cfg.json", "w") as fh:
            json.dump({key: 7}, fh)
        assert run([*query, "--config", str(tmp_path / "cfg.json")],
                   capsys) == (0, want)


def test_a_config_file_may_give_required_flags(tmp_path, capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump({"measure": str(tmp_path / "m.json"), "r-min": 0.05}, fh)
    code, out = run(["check-growth", "--config", str(tmp_path / "cfg.json")],
                    capsys)
    assert code == 0
    assert out.startswith("c_mu = 1.3541666666666667 (s = 1.0, r_min = 0.05)")


def test_config_number_values_reach_the_command(tmp_path, capsys,
                                                monkeypatch):
    from sio_lab import cli
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump({"threads": 2, "s": 1}, fh)  # s typed: 1.0, a float
    seen = []
    real = cli.growth_constant
    monkeypatch.setattr(cli, "growth_constant", lambda m, s, r_min, workers:
                        seen.append((s, r_min, workers))
                        or real(m, s, r_min, workers=workers))
    code, out = run(["check-growth", "--config", str(tmp_path / "cfg.json"),
                     "--measure", str(tmp_path / "m.json"), "--r-min",
                     "0.05"], capsys)
    assert code == 0 and "c_mu" in out
    assert seen == [(1.0, 0.05, 2)]
    assert [type(v) for v in seen[0]] == [float, float, int]


@pytest.mark.parametrize("flag, value", [("--test", "abc"),
                                         ("--near", "0.4x")])
def test_good_radii_rejects_a_malformed_radius(tmp_path, capsys, flag,
                                               value):
    run(["generate", "--level", "1", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["good-radii", "--measure", str(tmp_path / "m.json"),
              "--center", "0", "--depth", "1", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid Fraction value: '{value}'" in err


def test_converge_rejects_zero_balls_before_any_work(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--level", "1", "--balls", "0",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "n_balls must be >= 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_converge_rejects_an_underflowing_eps_grid_before_any_work(
        tmp_path, capsys):
    """0.5 * 0.5 ** 1074 is 0.0: formerly raised only inside the trace,
    after generate and every ball's certification, printing all 1,100
    entries; now the config refuses it, naming the first bad entry."""
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--level", "4", "--eps-count", "1100",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("eps grid must be finite, positive and strictly "
                        "decreasing, got entry 1074 = 0.0 after 5e-324\n")
    assert len(err) < 1000 and not list(tmp_path.iterdir())


@pytest.mark.parametrize("term", ['"coeff": NaN, "radius": 0.4',
                                  '"coeff": -Infinity, "radius": 0.4',
                                  '"coeff": 1.0, "radius": NaN',
                                  '"coeff": 1.0, "radius": Infinity'],
                         ids=["nan-coeff", "inf-coeff", "nan-radius",
                              "inf-radius"])
def test_pairing_rejects_a_non_finite_term_naming_its_file(tmp_path, capsys,
                                                          term):
    """A NaN radius formerly made f silently 0 and passed (exit 0), and a
    NaN coeff failed as a certification (exit 1)."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    f = tmp_path / "f.json"
    f.write_text('{"terms": [{"center": 0, %s}]}' % term)
    g = tmp_path / "g.json"
    g.write_text('{"terms": [{"coeff": 1.0, "center": 15, "radius": -1.0}]}')
    with pytest.raises(SystemExit) as exc:
        main(["pairing", "--measure", str(tmp_path / "m.json"),
              "--f", str(f), "--g", str(g), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--f file {f}: simple function term 0 must be finite" in err
    # the same g, with a finite f: a negative radius holds no atom
    f.write_text('{"terms": [{"coeff": 1.0, "center": 0, "radius": 0.4}]}')
    code, _ = run(["pairing", "--measure", str(tmp_path / "m.json"),
                   "--f", str(f), "--g", str(g), "--out-dir", str(tmp_path)],
                  capsys)
    assert code == 0


@pytest.mark.parametrize("grid", ["geometric:start=0.5", "0.5,abc",
                                  "geometric:start=0.5,ratio=0.5,count=2.5"])
def test_pairing_rejects_a_malformed_eps_grid(tmp_path, capsys, grid):
    run(["generate", "--level", "1", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["pairing", "--measure", str(tmp_path / "m.json"),
              "--f", "f.json", "--g", "g.json", "--eps-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --eps-grid: malformed eps grid" in err


def test_pairing_reads_the_eps_grid_of_a_config_file(tmp_path, capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    for name in ("f.json", "g.json"):
        with open(tmp_path / name, "w") as fh:
            json.dump({"terms": [{"coeff": 1.0, "center": 0,
                                  "radius": 0.4}]}, fh)
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump({"eps-grid": "0.5,0.25,0.125"}, fh)
    code, out = run(["pairing", "--config", str(tmp_path / "cfg.json"),
                     "--measure", str(tmp_path / "m.json"),
                     "--f", str(tmp_path / "f.json"),
                     "--g", str(tmp_path / "g.json"),
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "(3 epsilon values)" in out


@pytest.mark.parametrize("flags, match", [
    (["--eps-start", "nan", "--eps-count", "3"], "finite start > 0"),
    (["--s", "nan"], "s must be finite and positive")])
def test_converge_rejects_a_nan_before_any_work(tmp_path, capsys, flags,
                                                match):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--level", "2", *flags, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: sio-lab converge" in err and match in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("expr, match", [
    ("x[..., 5] / d", "coordinate index 5 in 'x[..., 5]' is out of range "
                      "for dimension 2"),
    ("d[0] * x[..., 0]", "may subscript only x[..., i] or y[..., i]")])
def test_converge_rejects_a_bad_kernel_subscript(tmp_path, capsys, expr,
                                                  match):
    (tmp_path / "kernel.txt").write_text(expr + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--level", "2", "--kernel", "custom",
              "--kernel-file", str(tmp_path / "kernel.txt"),
              "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: sio-lab converge" in err and match in err
    assert not out.exists()


NAN_BASE = "np.sqrt(-d)"  # NaN at every pair x != y


def test_failing_converge_writes_its_summary(tmp_path, capsys):
    (tmp_path / "kernel.txt").write_text(NAN_BASE + "\n")
    out = tmp_path / "out"
    code, printed = run(["converge", "--level", "2", "--kernel", "custom",
                         "--kernel-file", str(tmp_path / "kernel.txt"),
                         "--eps-count", "3", "--out-dir", str(out)], capsys)
    assert code == 1
    assert (out / "summary.json").exists() and (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["all_ok"] is False
    failed = [c["name"] for c in summary["checks"] if not c["ok"]]
    assert failed[0] == "kernel_antisymmetry"
    anti = next(c for c in summary["checks"]
                if c["name"] == "kernel_antisymmetry")
    assert anti["lhs"] == anti["rhs"] == "nan"
    lines = printed.splitlines()
    assert lines[0] == "FAIL  kernel_antisymmetry  lhs=nan  rhs=nan"
    assert lines[-1].startswith("CHECKS FAILED; wrote ")
    assert len(lines) == len(failed) + 1
    # report reads the strings back as the floats converge printed
    code, reported = run(["report", "--summary", str(out / "summary.json")],
                         capsys)
    assert code == 1
    assert [line for line in reported.splitlines()
            if line.startswith("FAIL")] == lines[:-1]


def _reject_constant(name):
    raise AssertionError(f"summary.json holds the bare token {name}")


def test_pairing_with_a_nan_kernel_writes_its_trace_and_fails(tmp_path,
                                                              capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    (tmp_path / "kernel.txt").write_text(NAN_BASE + "\n")
    for name in ("f.json", "g.json"):
        with open(tmp_path / name, "w") as fh:
            json.dump({"terms": [{"coeff": 1.0, "center": 0,
                                  "radius": 0.4}]}, fh)
    code, out = run(["pairing", "--measure", str(tmp_path / "m.json"),
                     "--kernel", "custom",
                     "--kernel-file", str(tmp_path / "kernel.txt"),
                     "--f", str(tmp_path / "f.json"),
                     "--g", str(tmp_path / "g.json"),
                     "--eps-grid", "0.5,0.25,0.125",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL  cauchy_bound_step_0  lhs=nan  rhs=nan",
        "FAIL  cauchy_bound_step_1  lhs=nan  rhs=0.0",  # an empty band
        f"CHECKS FAILED; wrote {tmp_path / 'trace.csv'} (3 epsilon values)"]
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1:] == ["0.5,nan,nan,nan", "0.25,nan,nan,0.0",
                         "0.125,nan,,"]


def test_check_kernel_with_a_nan_kernel_fails(tmp_path, capsys):
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    (tmp_path / "kernel.txt").write_text(NAN_BASE + "\n")
    code, out = run(["check-kernel", "--measure", str(tmp_path / "m.json"),
                     "--kernel", "custom",
                     "--kernel-file", str(tmp_path / "kernel.txt")], capsys)
    assert code == 1
    assert out.splitlines()[0] == "FAIL  kernel_antisymmetry  lhs=nan  rhs=nan"


@pytest.mark.parametrize("threads", [1, 2])
def test_check_kernel_prints_the_same_at_any_thread_count(
        tmp_path, capsys, monkeypatch, threads):
    """9-row tiles of the 64-atom cloud per thread, one walk of them for
    both checks: the kernel is evaluated on each row k(x, .) once, and on
    k(y, x) for y >= x0 in the tile from row x0; the output does not
    depend on how the tiles are split over threads or how tall they are."""
    run(["generate", "--level", "3", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    (tmp_path / "kernel.txt").write_text(
        "x[..., 0] * (x[..., 1] + 2.0 * y[..., 0]) / d ** 1.5\n")
    monkeypatch.setattr(metric, "_TILE_PAIRS", 9 * 64)
    pairs = []
    real = kernels._kernel_block
    monkeypatch.setattr(kernels, "_kernel_block", lambda k, cloud, r, c,
                        swap=False: (
        pairs.append(np.size(r) * (64 if c is None else np.size(c))),
        real(k, cloud, r, c, swap))[1])
    outs = []
    for flags in ([], ["--kernel", "custom",
                       "--kernel-file", str(tmp_path / "kernel.txt")]):
        query = ["check-kernel", "--measure", str(tmp_path / "m.json"),
                 *flags]
        pairs.clear()
        code, out = run([*query, "--threads", str(threads)], capsys)
        h = 9 * threads
        assert code == 0 and sum(pairs) == 64 * 64 + sum(
            min(h, 64 - x0) * (64 - x0) for x0 in range(0, 64, h)) \
            == {1: 6428, 2: 6680}[threads]
        assert run(query, capsys) == (0, out)
        outs.append(out)
    assert outs[0].startswith("PASS  kernel_antisymmetry  lhs=0.0  ")
    assert outs[1].splitlines()[-1].startswith("size bound: |k| <= ")


@pytest.mark.parametrize("kernel, flag, other", [
    ([], ["--kernel-file", "KERNEL"], "--kernel-file needs --kernel custom"),
    (["--kernel", "custom", "--kernel-file", "KERNEL"], ["--riesz-n", "2"],
     "--riesz-n needs --kernel riesz"),
    (["--kernel", "custom", "--kernel-file", "KERNEL"], ["--riesz-i", "1"],
     "--riesz-i needs --kernel riesz")])
@pytest.mark.parametrize("command", ["check-kernel", "converge"])
@pytest.mark.parametrize("typed", [True, False], ids=["typed", "config"])
def test_a_flag_of_the_other_kernel_family_is_a_usage_error(
        tmp_path, capsys, kernel, flag, other, command, typed):
    """Formerly taken and ignored: check-kernel with --kernel-file alone
    certified the Riesz kernel and exited 0."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    (tmp_path / "kernel.txt").write_text("x[..., 0] / d\n")
    kernel, flag = ([str(tmp_path / "kernel.txt") if a == "KERNEL" else a
                     for a in flags] for flags in (kernel, flag))
    where = ["--level", "2", "--out-dir", str(tmp_path / "run")] \
        if command == "converge" else ["--measure", str(tmp_path / "m.json")]
    if not typed:
        (tmp_path / "cfg.json").write_text(json.dumps({flag[0][2:]: flag[1]}))
        flag = ["--config", str(tmp_path / "cfg.json")]
    assert other in usage_error([command, *where, *kernel, *flag], capsys)
    assert not (tmp_path / "run").exists()


def usage_error(argv, capsys) -> str:
    """The standard error of main(argv), which must exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("modes", [[], ["--near", "0.4", "--test", "0.04"]],
                         ids=["none", "two"])
def test_good_radii_takes_exactly_one_mode(capsys, modes):
    """No mode formerly exited 1; two modes silently ran the first."""
    err = usage_error(["good-radii", "--measure", FOUR_CORNER_L3,
                       "--center", "5", *modes], capsys)
    assert "--materialize" in err or "not allowed with" in err


def test_a_custom_kernel_needs_its_file(tmp_path, capsys):
    """Formerly exit 1, with no usage message."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    err = usage_error(["check-kernel", "--measure", str(tmp_path / "m.json"),
                       "--kernel", "custom"], capsys)
    assert "--kernel custom requires --kernel-file" in err


@pytest.mark.parametrize("flag", ["--measure", "--kernel-file", "--f", "--g",
                                  "--summary"])
@pytest.mark.parametrize("text", [None, '{"terms": '],
                         ids=["missing", "malformed"])
def test_an_input_file_must_be_readable(tmp_path, capsys, flag, text):
    """A missing file, or one of malformed JSON (for the kernel file, of
    bytes that are not text), is a usage error naming the file, not a
    FileNotFoundError or JSONDecodeError traceback."""
    run(["generate", "--level", "2", "--out-dir", str(tmp_path),
         "--out", "m.json"], capsys)
    (tmp_path / "f.json").write_text('{"terms": []}')
    (tmp_path / "kernel.txt").write_text("0.0")
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_bytes(b"\xff\xfe" if flag == "--kernel-file"
                        else text.encode())
    if flag == "--summary":
        argv = ["report", "--summary", str(bad)]
    else:
        files = {"--measure": tmp_path / "m.json",
                 "--kernel-file": tmp_path / "kernel.txt",
                 "--f": tmp_path / "f.json", "--g": tmp_path / "f.json",
                 flag: bad}
        argv = ["pairing", "--kernel", "custom", "--eps-grid", "0.5,0.25",
                "--out-dir", str(tmp_path),
                *(x for key, path in files.items() for x in (key, str(path)))]
    assert str(bad) in usage_error(argv, capsys)


FOUR_CORNER_L3 = str(Path(__file__).parent / "data" / "four_corner_l3.json")

# good-radii on the saved level-3 four-corner measure at center 5
# (lambda 5, depth 3), as printed before atom positions became integer
# ticks: reduced Fractions in every witness, radius and total.
GOOD_RADII_PINS = [
    (["--test", "0.1346870059"], 1,
     "t = 1346870059/10000000000 rejected at generation 3: heavy_cell\n"),
    (["--test", "0.37"], 0,
     "t = 37/100 is a good radius (lambda=5, depth=3)\n"
     "  generation 1: cell 9, mass 3/64, clearance 1/100\n"
     "  generation 2: cell 231, mass 1/64, clearance 1/2500\n"
     "  generation 3: cell 5781, mass 0, clearance 1/62500\n"),
    (["--test", "0.8125"], 0,
     "t = 13/16 is a good radius (lambda=5, depth=3)\n"
     "  generation 1: cell 20, mass 1/64, clearance 1/80\n"
     "  generation 2: cell 507, mass 0, clearance 3/10000\n"
     "  generation 3: cell 12695, mass 0, clearance 1/50000\n"),
    (["--test", "2/7"], 1,
     "t = 2/7 rejected at generation 1: gridline_shell\n"),
    (["--near", "0.1346870059"], 0, "4207/31250 (= 0.134624)\n"),
    (["--near", "0.0336717515"], 0, "997/31250 (= 0.031904)\n"),
    (["--near", "0.61"], 0, "19063/31250 (= 0.610016)\n"),
]


@pytest.mark.parametrize("flags, status, printed", GOOD_RADII_PINS)
def test_good_radii_output_is_pinned(capsys, flags, status, printed):
    code, out = run(["good-radii", "--measure", FOUR_CORNER_L3,
                     "--center", "5", *flags], capsys)
    assert (code, out) == (status, printed)


def test_good_radii_materialize_file_is_pinned(tmp_path, capsys):
    code, out = run(["good-radii", "--measure", FOUR_CORNER_L3,
                     "--center", "5", "--materialize", "good.json",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == (f"wrote {tmp_path / 'good.json'}: 8597 intervals, total "
                   f"length 1057431/1953125 (bound 32/125)\n")
    assert hashlib.sha256((tmp_path / "good.json").read_bytes()).hexdigest() \
        == "adf04a8f9f4973b9d14ae74a5e43d08c4c386aebeab0f65bf0ac0b7711c899f7"


@pytest.mark.parametrize("argv", [
    ["generate", "--level", "2"],
    ["good-radii", "--measure", FOUR_CORNER_L3, "--center", "5",
     "--near", "0.4"],
    ["report", "--summary", "summary.json"]], ids=lambda a: a[0])
def test_threads_is_a_usage_error_where_nothing_walks_tiles(capsys, argv):
    """generate runs serially, and good-radii and report walk no pairs:
    --threads would be ignored there, so it names no flag."""
    err = usage_error([*argv, "--threads", "2"], capsys)
    assert "unrecognized arguments: --threads 2" in err


# each subcommand's required flags, with paths that parsing never opens
REQUIRED = {
    "check-growth": ["--measure", FOUR_CORNER_L3, "--r-min", "0.05"],
    "check-kernel": ["--measure", FOUR_CORNER_L3],
    "good-radii": ["--measure", FOUR_CORNER_L3, "--center", "5",
                   "--near", "0.4"],
    "pairing": ["--measure", FOUR_CORNER_L3, "--f", "f.json",
                "--g", "g.json"],
    "report": ["--summary", "summary.json"]}
# the flags that no code of the subcommand read
UNREAD = [("check-growth", "seed"), ("check-growth", "out-dir"),
          ("check-kernel", "seed"), ("check-kernel", "out-dir"),
          ("good-radii", "seed"), ("pairing", "seed"), ("pairing", "s"),
          ("report", "seed"), ("report", "out-dir")]


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[f"{c}--{f}" for c, f in UNREAD])
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(
        tmp_path, capsys, command, flag):
    """Formerly each was taken and ignored (exit 0), and pairing --s nan
    exited 2 over a value pairing never used. Typed or as a config key,
    it now names no flag."""
    value = "x" if flag == "out-dir" else "1"
    err = usage_error([command, *REQUIRED[command], f"--{flag}", value],
                      capsys)
    assert f"unrecognized arguments: --{flag} {value}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    err = usage_error([command, "--config", str(cfg), *REQUIRED[command]],
                      capsys)
    assert f"config key {flag!r} names no flag" in err


def test_every_flag_is_one_its_subcommand_reads():
    """65 settable flags, help excluded (74 before the unread --seed,
    --out-dir and --s went), and each where its subcommand reads it."""
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command")
    flags = {name: {a.option_strings[0] for a in p._actions
                    if a.dest != "help"}
             for name, p in sub.choices.items()}
    assert sum(map(len, flags.values())) == 65
    assert {name for name, f in flags.items() if "--seed" in f} \
        == {"generate", "converge"}
    assert {name for name, f in flags.items() if "--out-dir" in f} \
        == {"generate", "good-radii", "pairing", "converge"}
    assert {name for name, f in flags.items() if "--s" in f} \
        == {"check-growth", "check-kernel", "converge"}
    assert all("--config" in f for f in flags.values())


def _recording_libc():
    """A C library whose mallopt records its calls."""
    def mallopt(param, value):
        mallopt.calls.append((param, value))
        return 1
    mallopt.calls = []
    return types.SimpleNamespace(mallopt=mallopt)


def test_main_pins_the_heap_thresholds(tmp_path, capsys, monkeypatch):
    """M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at
    64 MiB, once per call of main."""
    libc = _recording_libc()
    monkeypatch.setattr(cli, "_libc", lambda: libc)
    code, _ = run(["generate", "--level", "2", "--out-dir", str(tmp_path)],
                  capsys)
    assert code == 0
    assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_pinning_the_heap_twice_is_harmless(tmp_path, capsys):
    cli._pin_heap()
    cli._pin_heap()
    code, out = run(["converge", "--level", "3", "--eps-count", "4",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "all checks passed" in out


def _no_libc():
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_no_libc, object],
                         ids=["lookup_fails", "no_mallopt"])
def test_the_heap_policy_does_nothing_without_mallopt(tmp_path, capsys,
                                                      monkeypatch, libc):
    monkeypatch.setattr(cli, "_libc", libc)
    assert cli._pin_heap() is None
    code, out = run(["generate", "--level", "2", "--out-dir", str(tmp_path)],
                    capsys)
    assert code == 0 and "16 atoms" in out


def test_the_heap_policy_leaves_converge_outputs_unchanged(tmp_path, capsys,
                                                           monkeypatch):
    def converge(out_dir):
        code, _ = run(["converge", "--level", "4", "--eps-count", "12",
                       "--threads", "2", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        return [(out_dir / name).read_bytes()
                for name in ("summary.json", "trace.csv")]

    pinned = converge(tmp_path / "pinned")
    monkeypatch.setattr(cli, "_pin_heap", lambda: None)
    assert converge(tmp_path / "default") == pinned


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_a_second_converge_faults_in_no_tile_memory(tmp_path):
    """Run in a fresh interpreter: once main has run in this one, its heap
    stays pinned. Under glibc's dynamic thresholds the second level-5
    converge refaults its tiles' temporaries (about 8k-15k minor faults);
    pinned, it reuses them (about 100)."""
    script = f"""
import contextlib, io, resource, sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
from sio_lab import cli
argv = ["converge", "--level", "5", "--eps-count", "12",
        "--out-dir", {str(tmp_path)!r}]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True)
    faults = int(done.stdout)
    assert faults < 1000, f"{faults} minor faults in the second converge"
