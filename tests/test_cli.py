import ast
import json
from pathlib import Path

import pytest

from psop import classify, cli
from psop.cli import MAX_MATRIX_SIZE, ConfigError, JobConfig, main, run


BASE = {
    "schema": 1,
    "space": {"type": "finite", "alpha": {"kind": "linear"}},
    "operator": {"kind": "hat", "theta": {"geometric": {"c": "1/2", "r": "1/2"}}},
    "task": {"type": "classify", "modes": ["power_bounded"]},
}


def write(tmp_path: Path, obj, name="job.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_parse_and_round_trip():
    cfg = JobConfig.parse(json.loads(json.dumps(BASE)))
    again = JobConfig.parse(cfg.raw)
    assert again.raw == cfg.raw
    assert cfg.space.is_finite_type


def test_unknown_fields_rejected():
    bad = dict(BASE, bogus=1)
    with pytest.raises(ConfigError):
        JobConfig.parse(bad)
    bad = json.loads(json.dumps(BASE))
    bad["operator"]["mystery"] = True
    with pytest.raises(ConfigError):
        JobConfig.parse(bad)
    bad = json.loads(json.dumps(BASE))
    bad["task"]["extra"] = 1
    with pytest.raises(ConfigError):
        JobConfig.parse(bad)


def test_incompatible_dual_operator_rejected():
    bad = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "log"}},
        "operator": {"kind": "check", "beta": {"finite": [1]}},
        "task": {"type": "classify"},
    }
    with pytest.raises(ConfigError):
        JobConfig.parse(bad)


def test_classify_run_and_determinism(tmp_path):
    cfg = JobConfig.parse(json.loads(json.dumps(BASE)))
    rep1, code1 = run(cfg, tmp_path / "a")
    rep2, code2 = run(cfg, tmp_path / "b")
    assert code1 == code2 == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert doc["verdicts"][0]["status"] == "holds"
    assert doc["timing"] == {"file": "timing.json"}
    assert (tmp_path / "a" / "timing.json").exists()


def test_check_classify_with_geometric_beta_writes_a_report(tmp_path):
    cfg = JobConfig.parse({
        "schema": 1,
        "space": {"type": "infinite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "check", "beta": {"geometric": {"c": "3/4", "r": "1/2"}}},
        "task": {"type": "classify"},
    })
    _, code = run(cfg, tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert len(doc["verdicts"]) == 3


def test_check_classify_with_short_sampled_beta_writes_a_report(tmp_path):
    # the power table is sized to the 3 readable entries, not to 8
    cfg = JobConfig.parse({
        "schema": 1,
        "space": {"type": "infinite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "check", "beta": {"sampled": {
            "values": ["1/2", "1/4", "1/8"],
            "envelope": {"geometric": {"scale": 1, "ratio": 0.5}}}}},
        "task": {"type": "classify"},
    })
    _, code = run(cfg, tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    got = {v["property"]: (v["status"], v["certificate"] and v["certificate"]["rule"])
           for v in doc["verdicts"]}
    assert got["m_topologizable"] == ("holds", "young_envelope")
    assert got["power_bounded"] == ("inconclusive", None)


def test_read_past_a_sampled_window_is_a_task_error(tmp_path, capsys):
    # the orbit embeds its start at the grid's truncation, past the 3-entry window
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "hat", "theta": {"finite": ["1/2"]}},
        "task": {"type": "orbit", "K": 2, "p_grid": [1], "start": {"sampled": {
            "values": ["1/2", "1/4", "1/8"],
            "envelope": {"geometric": {"scale": 1, "ratio": 0.5}}}}},
    }
    assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == 3
    assert "beyond sampled window" in capsys.readouterr().err


def _verdicts(tmp_path, job) -> dict:
    assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    got = {}
    for v in doc["verdicts"]:
        assert v["property"] not in got
        got[v["property"]] = (v["status"], v["certificate"] and v["certificate"]["rule"])
    return got


def test_toeplitz_source_with_a_laurent_window_classifies(tmp_path):
    # the dual part keeps a 33-entry window; the certificate check reads
    # the fitted envelope past it
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "toeplitz", "source": {
            "rational": {"num": [1], "den": [-0.5, 1]},
            "radius": 1.0, "annulus": [0.5, 2.0]}},
        "task": {"type": "classify"},
    }
    assert set(_verdicts(tmp_path, job)) == {"topologizable", "m_topologizable",
                                             "power_bounded"}


def test_inconclusive_toeplitz_topologizable_keeps_its_label(tmp_path):
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "toeplitz", "theta": {"finite": ["1/4"]},
                     "beta": {"sampled": {"values": ["0", "1/2"], "envelope": {
                         "geometric": {"scale": 1, "ratio": 0.5}}}}},
        "task": {"type": "classify"},
    }
    got = _verdicts(tmp_path, job)
    assert list(got) == ["topologizable", "m_topologizable", "power_bounded"]
    assert got["topologizable"] == got["m_topologizable"]


def test_ratio_zero_envelope_is_finite_support(tmp_path):
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "hat", "theta": {"sampled": {
            "values": ["3/2", "0"], "envelope": {"geometric": {"scale": 2, "ratio": 0}}}}},
        "task": {"type": "classify", "modes": ["power_bounded", "strongly_tame"]},
    }
    got = _verdicts(tmp_path, job)
    assert got == {"power_bounded": ("fails", "hat_l1_exceeds"),
                   "strongly_tame": ("holds", got["strongly_tame"][1])}


def test_report_config_echo_reparses(tmp_path):
    cfg = JobConfig.parse(json.loads(json.dumps(BASE)))
    run(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    echoed = JobConfig.parse(doc["config"])
    assert echoed.raw == cfg.raw


def test_orbit_task_csv(tmp_path):
    job = {
        "schema": 1,
        "space": {"type": "infinite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "hat", "theta": {"finite": ["1/2"]}},
        "task": {"type": "orbit", "start": {"basis": 1}, "K": 6, "p_grid": [1, 2]},
    }
    cfg = JobConfig.parse(job)
    report, code = run(cfg, tmp_path)
    assert code == 0
    lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "k,p,norm,cesaro_norm,tail_bound"
    assert len(lines) == 1 + 6 * 2
    assert report.series[0]["kind"] == "orbit"


def test_check_orbit_from_a_geometric_start_against_a_small_ratio(tmp_path):
    """A geometric beta with ratio 1/100 against an enveloped start: the dual
    truncation bound takes no negative power of the ratio, so the run ends
    in a report instead of an OverflowError."""
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "check", "beta": {"geometric": {"c": "1", "r": "1/100"}}},
        "task": {"type": "orbit", "start": {"geometric": {"c": "1", "r": "1/2"}},
                 "K": 4, "p_grid": [1, 2]},
    }
    _, code = run(JobConfig.parse(job), tmp_path)
    assert code == 0
    assert len((tmp_path / "orbit.csv").read_text().strip().splitlines()) == 1 + 4 * 2


def test_cesaro_task(tmp_path):
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "hat", "theta": {"finite": ["1/2"]}},
        "task": {"type": "cesaro", "start": {"basis": 1}, "K": 4, "p_grid": [1]},
    }
    _, code = run(JobConfig.parse(job), tmp_path)
    assert code == 0
    assert (tmp_path / "cesaro_mean.csv").exists()


def test_laurent_task(tmp_path):
    job = {
        "schema": 1,
        "space": {"type": "finite", "alpha": {"kind": "linear"}},
        "operator": {"kind": "toeplitz",
                     "source": {"rational": {"num": [1], "den": [2, -1]},
                                "radius": 0.9, "window": 16,
                                "annulus": [0.0, 2.0]}},
        "task": {"type": "laurent", "radius": 0.9, "window": [-8, 8],
                 "samples": 128},
    }
    report, code = run(JobConfig.parse(job), tmp_path)
    assert code == 0
    lines = (tmp_path / "laurent.csv").read_text().strip().splitlines()
    assert lines[0] == "n,re,im,err" and len(lines) == 18
    assert report.summary["backward_weighted_sum"] == pytest.approx(
        0.5 * 2.718281828459045, rel=1e-9)


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, BASE)
    assert main(["run", good, "--out", str(tmp_path / "out")]) == 0
    bad = write(tmp_path, dict(BASE, bogus=1), "bad.json")
    assert main(["run", bad]) == 2
    # task error: laurent radius outside the annulus
    job = json.loads(json.dumps(BASE))
    job["operator"] = {"kind": "toeplitz",
                       "source": {"rational": {"num": [1], "den": [2, -1]},
                                  "radius": 0.9, "annulus": [0.0, 2.0]}}
    job["task"] = {"type": "laurent", "radius": 3.5, "window": [-4, 4]}
    taskbad = write(tmp_path, job, "taskbad.json")
    assert main(["laurent", taskbad, "--out", str(tmp_path / "out2")]) == 3
    capsys.readouterr()


def test_verify_unknown_suite_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    from psop.verification import SweepOutcome

    def fake_suite(name):
        return [SweepOutcome("stub_check", False, -1.0)]

    monkeypatch.setattr("psop.cli.run_suite", fake_suite)
    assert main(["verify", "laurent"]) == 4
    out = capsys.readouterr().out
    assert "stub_check: FAIL" in out


def test_verify_pass_exit_code(monkeypatch, capsys):
    from psop.verification import SweepOutcome

    monkeypatch.setattr("psop.cli.run_suite",
                        lambda name: [SweepOutcome("stub_check", True, 0.5)])
    assert main(["verify", "identities"]) == 0
    assert "stub_check: pass" in capsys.readouterr().out


@pytest.mark.parametrize("kind,sym", [("check", "beta"), ("hat", "theta"),
                                      ("toeplitz", None)])
def test_classify_mode_aliases_agree_across_operator_kinds(tmp_path, kind, sym):
    op = {"kind": kind}
    if sym is None:
        op.update(theta={"finite": ["1/4"]}, beta={"finite": ["1/4"]})
    else:
        op[sym] = {"finite": ["1/2"]}
    job = {
        "schema": 1,
        "space": {"type": "infinite", "alpha": {"kind": "linear"}},
        "operator": op,
        "task": {"type": "classify", "modes": ["m_top", "M-Topologizable", "mtop"]},
    }
    assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [v["property"] for v in doc["verdicts"]] == ["m_topologizable"] * 3
    job["task"]["modes"] = ["m_top", "bogus"]
    assert main(["run", write(tmp_path, job, "bad.json")]) == 2


def _with_task(**task):
    cfg = json.loads(json.dumps(BASE))
    cfg["task"].update(task)
    return cfg


@pytest.mark.parametrize("size", [1, MAX_MATRIX_SIZE])
def test_matrix_size_in_range_parses(size):
    assert JobConfig.parse(_with_task(matrix_size=size)).task["matrix_size"] == size


@pytest.mark.parametrize("size", ["abc", "12", 0, -3, MAX_MATRIX_SIZE + 1, 10 ** 6,
                                  2.5, True, None])
def test_matrix_size_outside_range_is_a_config_error(size):
    """Checked at parse time: no job is run, so no matrix is allocated."""
    with pytest.raises(ConfigError, match="matrix_size"):
        JobConfig.parse(_with_task(matrix_size=size))


@pytest.mark.parametrize("modes", [["pb", "bogus"], "pb", [1]])
def test_unknown_classify_mode_is_a_config_error_at_parse(modes):
    with pytest.raises(ConfigError, match="modes"):
        JobConfig.parse(_with_task(modes=modes))


def test_cli_reaches_the_classifiers_through_classify_operator_only():
    """cli.py takes from classify only classify_operator, norm_mode and
    types, so which classifier answers a (kind, space type, mode) is decided
    in classify alone."""
    imported = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").removeprefix("psop.") == "classify":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "psop"):
            assert "classify" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name == "psop.classify" for alias in node.names)
    functions = {name for name in imported if not isinstance(getattr(classify, name), type)}
    assert functions == {"classify_operator", "norm_mode"}


@pytest.mark.parametrize("space_type,values", [("infinite", ["0"]), ("finite", ["1/4"])])
def test_hat_jobs_with_a_gap_print_no_holds_verdict(tmp_path, capsys, space_type, values):
    """A support bound past the values without an envelope leaves entries 1
    and 2 unknown: the job ends without a holds verdict, or in exit 3."""
    job = json.loads(json.dumps(BASE))
    job["space"]["type"] = space_type
    job["operator"]["theta"] = {"sampled": {"values": values, "support_len": 3}}
    code = main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")])
    assert code == 3 or (code == 0 and ": holds" not in capsys.readouterr().out)


@pytest.mark.parametrize("space_type,values", [("infinite", ["0"]), ("finite", ["1/4"])])
def test_hat_jobs_with_a_finite_envelope_and_a_gap_print_no_holds_verdict(
        tmp_path, capsys, space_type, values):
    """The envelope {"finite": null} bounds no value, so with a support bound
    past the values entries 1 and 2 stay unknown, as without an envelope."""
    job = json.loads(json.dumps(BASE))
    job["space"]["type"] = space_type
    job["operator"]["theta"] = {"sampled": {"values": values, "envelope": {"finite": None},
                                            "support_len": 3}}
    code = main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")])
    assert code == 3 or (code == 0 and ": holds" not in capsys.readouterr().out)


def test_matrix_export_of_an_overflowing_float_law_is_a_task_error(tmp_path):
    job = {"schema": 1,
           "space": {"type": "infinite", "alpha": {"kind": "linear"}},
           "operator": {"kind": "toeplitz", "theta": {"finite": ["1/2"]},
                        "beta": {"geometric": {"c": 1.0, "r": 1.5}}},
           "task": {"type": "classify", "matrix_size": 1800}}
    assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == 3


def _space_job(space_type, alpha, kind="hat"):
    job = json.loads(json.dumps(BASE))
    job["space"] = {"type": space_type, "alpha": alpha}
    if kind == "check":
        job["operator"] = {"kind": "check", "beta": {"finite": ["1/2"]}}
    return job


def _orbit_job(task_type, K):
    return _with_task(type=task_type, K=K, p_grid=[1])


@pytest.mark.parametrize("job,code,message", [
    (_space_job("infinite", {"kind": "root", "degree": 0}), 2, "root degree"),
    (_space_job("infinite", {"kind": "explicit", "values": [2, 1]}), 2, "decreases"),
    (_space_job("infinite", {"kind": "explicit", "values": [1, 2],
                             "extension": "wrap"}), 2, "unknown extension rule"),
    (_orbit_job("orbit", 0), 2, "task.K"),
    (_orbit_job("cesaro", 0), 2, "task.K"),
    (dict(BASE, grid={"tol": 1e-8}), 2, "unknown fields ['tol']"),
    (_space_job("infinite", {"kind": "explicit", "values": [1, 2, 3],
                             "extension": None}), 3, "beyond explicit prefix"),
    (_space_job("finite", {"kind": "explicit", "values": [1, 2, 3],
                           "extension": None}, "check"), 2, "beyond explicit prefix"),
], ids=["root_degree_0", "decreasing_values", "extension_wrap", "orbit_K_0",
        "cesaro_K_0", "grid_tol", "hat_past_explicit_prefix",
        "check_nuclearity_past_explicit_prefix"])
def test_invalid_configs_end_in_an_exit_code_without_a_traceback(
        tmp_path, capsys, job, code, message):
    assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:" if code == 2 else "task error:")
    assert message in err


def test_an_exact_dual_entry_past_the_float_range_is_a_task_error(tmp_path, capsys):
    job = {"schema": 1,
           "space": {"type": "infinite", "alpha": {"kind": "explicit",
                                                   "values": [1000.0, 2000.0],
                                                   "extension": "arithmetic"}},
           "operator": {"kind": "check", "beta": {"finite": [str(10 ** 400)]}},
           "task": {"type": "classify", "modes": ["power_bounded"]},
           "grid": {"N": 16, "K": 4, "P": 2, "Q": 4}}
    # the hat side of the same entry, in each mode that ends in TailUnbounded
    hat = {"kind": "hat", "theta": {"finite": ["1/2", str(10 ** 400)]}}
    jobs = [job] + [dict(job, space={"type": space_type}, operator=hat,
                         task={"type": "classify", "modes": [mode]})
                    for space_type, mode in [("finite", "topologizable"),
                                             ("finite", "m_topologizable"),
                                             ("infinite", "topologizable"),
                                             ("infinite", "m_topologizable"),
                                             ("infinite", "power_bounded")]]
    for job in jobs:
        assert main(["run", write(tmp_path, job), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("task error:") and "overflows a float" in err
        assert "Traceback" not in err
