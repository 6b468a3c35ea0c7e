import json
from pathlib import Path

import pytest

from psop.cli import ConfigError, JobConfig, main, run


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
