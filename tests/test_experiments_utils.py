"""Experiment plumbing: configs, report rendering, context caching."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import checkpoint_key
from repro.experiments import (
    ExperimentContext,
    get_config,
    human_bytes,
    human_count,
    pct,
    text_table,
)
from repro.experiments import runner


def test_get_config_scales():
    smoke = get_config("smoke")
    default = get_config("default")
    paper = get_config("paper")
    assert smoke.num_candidates < default.num_candidates \
        < paper.num_candidates
    assert smoke.apps == ("cifar10", "mnist", "nt3", "uno")
    assert default.schemes == ("baseline", "lp", "lcs")
    with pytest.raises(ValueError):
        get_config("huge")


def test_text_table_format():
    out = text_table("Title", ["App", "Score"],
                     [["cifar10", "0.9"], ["nt3", "0.5"]])
    lines = out.splitlines()
    assert lines[0] == "Title"
    assert lines[1].startswith("App")
    assert " | " in lines[1]
    assert set(lines[2]) == {"-", "+"}
    assert "-+-" in lines[2]
    assert lines[3].startswith("cifar10 | 0.9")


def test_human_count_and_bytes():
    assert human_count(1_690_000_000_000_00) == "169T"
    assert human_count(1500) == "1.5K"
    assert human_count(12) == "12"
    assert human_bytes(2e9) == "2G"


def test_pct():
    assert pct(0.123) == "12.3%"
    assert pct(0.5, 0) == "50%"


def test_context_run_name_matches_recorded_layout(tmp_path):
    ctx = ExperimentContext("smoke", workdir=tmp_path)
    name = ctx.run_name("cifar10", "lcs", 8, 0)
    assert name == "cifar10_lcs_s0_g8_n20"
    store = ctx.store("cifar10", "lcs", gpus=8, seed=0)
    assert store.root == tmp_path / "ckpt" / name
    assert ctx.store("cifar10", "baseline") is None


def test_context_reruns_load_the_trace_cache(tmp_path, monkeypatch):
    """A second context on the same workdir reads a search back from
    its trace cache; with no workdir, a context works under
    ``results/<scale>`` of the working directory."""
    monkeypatch.chdir(tmp_path)
    config = replace(get_config("smoke"), num_candidates=3)
    first = ExperimentContext(config=config)
    assert first.workdir == Path("results") / "smoke"
    searched = first.trace("uno", "lcs")
    assert len(searched) == 3
    cached = ExperimentContext(config=config).trace("uno", "lcs")
    assert cached.records == searched.records


def test_full_warm_starts_from_each_saved_checkpoint(tmp_path,
                                                     monkeypatch):
    """Phase 2 warm-starts a record from the checkpoint its save wrote.
    A record whose save failed (``ckpt_bytes == 0``) trains cold; one
    whose checkpoint is gone from the workdir raises, naming the trace
    cache to delete, rather than quietly training cold."""
    monkeypatch.setattr("repro.experiments.context.full_train",
                        lambda problem, arch_seq, seed, initial_weights:
                        initial_weights)
    config = replace(get_config("smoke"), num_candidates=3)
    ctx = ExperimentContext(config=config, workdir=tmp_path)
    first, second = [r for r in ctx.trace("uno", "lcs")
                     if r.ckpt_bytes > 0][:2]
    assert ctx.full("uno", "lcs", first) is not None
    unsaved = replace(first, candidate_id=99, ckpt_bytes=0)
    assert ctx.full("uno", "lcs", unsaved) is None
    shutil.rmtree(tmp_path / "ckpt")
    with pytest.raises(FileNotFoundError,
                       match=checkpoint_key(second.candidate_id)) as exc:
        ctx.full("uno", "lcs", second)
    assert str(ctx.trace_path("uno", "lcs", ctx.default_gpus, 0)) \
        in str(exc.value)


def test_runner_runs_named_experiments_and_rejects_unknown(tmp_path,
                                                           capsys):
    assert runner.main(["--workdir", str(tmp_path), "table1"]) == 0
    assert "== table1 ==" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        runner.main(["--workdir", str(tmp_path), "fig99"])
    assert exc.value.code == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


def test_context_caches_problems(tmp_path):
    ctx = ExperimentContext("smoke", workdir=tmp_path)
    assert ctx.problem("mnist") is ctx.problem("mnist")
    assert ctx.default_gpus == max(ctx.config.gpu_counts)
