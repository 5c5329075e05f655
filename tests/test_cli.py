import json

import pytest
from click.testing import CliRunner

from loopforge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_reduce_command(runner, tmp_path):
    result = _invoke(runner, ["reduce", "--n", "2", "v 0 2 1 0 2 1 v"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["text"] == "v 2 1 0 2 v"
    assert data["strippedPrefixParity"] == 1
    assert data["exact"] is True


def test_reduce_rejects_bad_word(runner):
    result = _invoke(runner, ["reduce", "--n", "2", "v 2 v 2 v"])
    assert result.exit_code == 2
    data = json.loads(result.output)
    assert data["error"]["type"] == "PreconditionError"
    # words of different kinds name no common class; decompose takes 'v'
    # only at both ends
    for args in (["equiv", "--n", "2", "v 2 v", "0 1"],
                 ["decompose", "--n", "2", "v 2 v 2"],
                 ["decompose", "--n", "2", "2 v 1"]):
        result = _invoke(runner, args)
        assert result.exit_code == 2, args
        assert json.loads(result.output)["error"]["type"] == "PreconditionError"


def test_canon_command(runner):
    result = _invoke(
        runner, ["canon", "--n", "2", "--hemisphere", "N", "v 0 2 1 0 2 1 v"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["class"]["core"] == ["2", "1", "0", "2"]
    assert data["class"]["startHemisphere"] == "S"


def test_equiv_command(runner):
    result = _invoke(
        runner,
        ["equiv", "--n", "2", "--hemi1", "N", "--hemi2", "S",
         "v 2 1 0 2 v", "v 2 1 0 2 v"],
    )
    assert json.loads(result.output)["equivalent"] is False
    result = _invoke(
        runner, ["equiv", "--n", "2", "0 1 1 0", ""]
    )
    assert json.loads(result.output)["equivalent"] is True


def test_selfint_command(runner, tmp_path):
    result = _invoke(
        runner,
        ["selfint", "--n", "2", "--cache-dir", str(tmp_path),
         "v 2 0 1 0 1 0 1 2 v"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["value"] == 8
    assert data["value"] >= 2
    assert data["exact"] is True
    assert data["witness"]["gapOrders"]


def test_selfint_budget_exit_code(runner, tmp_path):
    result = _invoke(
        runner,
        ["selfint", "--n", "2", "--no-cache", "--budget", "2",
         "v 2 0 1 0 1 0 1 2 v"],
    )
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["exact"] is False


@pytest.mark.parametrize("args", [["enumerate", "--k", "2"], ["graph", "--k", "2"],
                                  ["growth", "--kmax", "3"]])
def test_enumeration_budget_error_object(runner, args):
    # an incomplete catalog prints the error object instead of a report
    result = _invoke(runner, args + ["--n", "2", "--no-cache", "--budget", "5"])
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["error"]["type"] == "EnumerationIncomplete"
    assert data["error"]["message"].startswith("budget exhausted on core")
    assert data["exact"] is False


def test_pairint_command(runner, tmp_path):
    result = _invoke(
        runner,
        ["pairint", "--n", "2", "--cache-dir", str(tmp_path),
         "--hemi1", "N", "--hemi2", "S", "v 2 v", "v 2 v"],
    )
    data = json.loads(result.output)
    assert data["value"] == 0
    assert data["exact"] is True


def test_bounds_command(runner):
    result = _invoke(runner, ["bounds", "--n", "1", "--k", "3"])
    data = json.loads(result.output)
    assert data["fUpperSinglePuncture"] == "7"
    result = _invoke(runner, ["bounds", "--n", "2", "--k", "1"])
    data = json.loads(result.output)
    assert data["fUpperDoubleExp"]["value"] == str(2**16)


def test_windings_command(runner):
    result = _invoke(runner, ["windings", "--n", "2", "v 2 0 1 0 2 v"])
    data = json.loads(result.output)
    assert data["lowerBound"] == 1
    assert data["windings"][0]["obstacle"] == 1


def test_decompose_command(runner):
    result = _invoke(runner, ["decompose", "--n", "2", "v 2 0 1 0 1 0 1 2 v"])
    data = json.loads(result.output)
    assert data["core"] == "2 0 1 2"
    assert data["vectors"]["01"] == [2]


def test_count_expansions_command(runner):
    result = _invoke(runner, ["count-expansions", "--l", "2", "--k", "3"])
    data = json.loads(result.output)
    assert data["count"] == "5"


def test_count_expansions_sweep_csv(runner):
    result = _invoke(
        runner,
        ["count-expansions", "--k", "1", "--sweep", "--lmax", "2", "--kmax", "2",
         "--format", "csv"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "length,k,exactCount,mVectorCount,mVectorCap,multinomialZ"
    assert len(lines) == 7


def test_enumerate_command(runner, tmp_path):
    result = _invoke(
        runner,
        ["enumerate", "--n", "2", "--k", "1", "--cache-dir", str(tmp_path)],
    )
    lines = result.output.strip().splitlines()
    header = json.loads(lines[0])
    assert header["count"] == 4
    assert header["countUncertainty"] == 1
    assert header["exact"] is True
    assert len(lines) == 5


def test_graph_command(runner, tmp_path):
    result = _invoke(
        runner,
        ["graph", "--n", "1", "--k", "2", "--cache-dir", str(tmp_path)],
    )
    data = json.loads(result.output)
    assert len(data["vertices"]) == 5
    assert data["familyBounds"]["cliqueUpper"] is not None
    assert data["exact"] is True


def test_growth_command(runner, tmp_path):
    result = _invoke(
        runner,
        ["growth", "--kmax", "2", "--cache-dir", str(tmp_path), "--format", "csv"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("k,classCountN2")
    assert len(lines) == 3


def test_run_config_validation(runner):
    result = _invoke(runner, ["selfint", "--n", "2", "--budget", "0", "v 2 v"])
    assert result.exit_code == 2
    result = _invoke(runner, ["enumerate", "--n", "2", "--k", "1", "--length-cap", "1"])
    assert result.exit_code == 2
    result = _invoke(runner, ["enumerate", "--n", "2", "--k", "1", "--jobs", "0"])
    assert result.exit_code == 2


def test_oracle_options_only_where_used():
    oracle_commands = {"selfint", "pairint", "enumerate", "graph", "growth"}
    for name, command in main.commands.items():
        params = {p.name for p in command.params}
        for option in ("budget", "cache_dir", "no_cache"):
            assert (option in params) == (name in oracle_commands), (name, option)


def test_reports_deterministic(runner, tmp_path):
    """The same command against a cold cache twice gives identical bytes."""
    outputs = []
    for attempt in (1, 2):
        cache = tmp_path / f"cache{attempt}"
        args = ["enumerate", "--n", "2", "--k", "2", "--cache-dir", str(cache)]
        outputs.append(_invoke(runner, args).output)
    assert outputs[0] == outputs[1]
