import hashlib
import json
from pathlib import Path

import pytest

from sio_lab.cli import main
from sio_lab.generators import generate


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


def test_generate_runs_on_the_given_threads(tmp_path, capsys, monkeypatch):
    from sio_lab import cli
    seen = []

    def recording_generate(spec, workers=1):
        seen.append(workers)
        return generate(spec, workers=workers)
    monkeypatch.setattr(cli, "generate", recording_generate)
    code, _ = run(["generate", "--level", "2", "--threads", "3",
                   "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and seen == [3]


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
        json.dump({"count": 10, "threads": 2, "family": "uniform_random"}, fh)
    cfg = str(tmp_path / "cfg.json")
    # --count 64 is the flag's default value, typed on purpose
    code, out = run(["generate", "--config", cfg, "--count", "64",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "64 atoms" in out
    code, out = run(["generate", "--config", cfg,
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and "10 atoms" in out
    seen = []
    monkeypatch.setattr(cli, "cmd_converge", lambda args: seen.append(
        (args.threads, args.count)) or 0)
    assert main(["converge", "--config", cfg, "--threads", "1"]) == 0
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
