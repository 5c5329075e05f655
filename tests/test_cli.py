import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from cache_rows import cache_rows, write_row
from loopforge import Drawing, bounds, cli, count_crossings, oracle
from loopforge.cache import DATABASE
from loopforge.cli import main
from loopforge.extremal import compatibility_graph, enumerate_classes, growth_report
from loopforge.words import format_letters


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


@pytest.mark.parametrize("args", [
    ["reduce", "--n", "2", "²"],  # a digit to `str.isdigit`, which `int` refuses
    ["selfint", "--n", "2", "v 2 ² v"],
    ["reduce", "--n", "3", "v 2 ٣ v"],  # an Arabic-Indic 3, which `int` reads as 3
], ids=["superscript", "superscript-selfint", "arabic-indic"])
def test_non_ascii_digits_are_precondition_errors(runner, args):
    result = _invoke(runner, args)
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and "unknown token" in error["message"]


def test_deleted_working_directory_is_a_precondition_error(runner, monkeypatch):
    """Without --cache-dir or $LOOPFORGE_CACHE the cache lives in the working
    directory; when that was deleted, `os.getcwd` raises and the command
    exits 2 with an error object."""
    def deleted():
        raise FileNotFoundError(2, "No such file or directory")

    monkeypatch.delenv("LOOPFORGE_CACHE", raising=False)
    monkeypatch.setattr(os, "getcwd", deleted)
    result = _invoke(runner, ["selfint", "--n", "2", "v 2 v"])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and "--cache-dir" in error["message"]


def test_default_cache_dir_is_resolved_once_per_command(runner, tmp_path, monkeypatch):
    """Without --cache-dir or --no-cache a command resolves the default cache
    directory once, not once per query, and its rows land there."""
    calls = []

    def counted():
        calls.append(None)
        return str(tmp_path / "default-cache")

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOOPFORGE_CACHE", raising=False)
    monkeypatch.setattr(oracle, "default_cache_dir", counted)
    monkeypatch.setattr(cli, "default_cache_dir", counted, raising=False)
    result = _invoke(runner, ["graph", "--n", "2", "--k", "3"])
    assert result.exit_code == 0
    assert len(calls) == 1
    assert cache_rows(tmp_path / "default-cache")
    assert not (tmp_path / ".loopforge-cache").exists()


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


def _rerun_over(runner, tmp_path, corrupt):
    """Run `selfint` on a fresh cache, replace the text of the one entry it
    wrote by `corrupt(entry)` and run again: the entry is a cache miss, the
    output is the same, and the search writes the entry anew."""
    args = ["selfint", "--n", "2", "--cache-dir", str(tmp_path), "v 2 0 1 2 v"]
    first = _invoke(runner, args)
    [(key, text)] = cache_rows(tmp_path).items()
    write_row(tmp_path, key, corrupt(json.loads(text)))
    again = _invoke(runner, args)
    assert again.exit_code == first.exit_code == 0
    assert again.output == first.output
    assert cache_rows(tmp_path) == {key: text}


@pytest.mark.parametrize("garbage", [b"\xff\xfe{", b"[1,2]"])
def test_selfint_ignores_corrupt_cache_entry(runner, tmp_path, garbage):
    # an entry that is not UTF-8 JSON, or not a JSON object, is a cache miss
    _rerun_over(runner, tmp_path, lambda entry: garbage)


@pytest.mark.parametrize("corrupt", [
    lambda entry: json.dumps({**entry, "key": "n2|self|v|v.2.1.0.2.v"}, sort_keys=True),
    lambda entry: json.dumps({**entry, "version": "1"}, sort_keys=True),
    lambda entry: None,
], ids=["other-key", "other-version", "null"])
def test_selfint_ignores_foreign_cache_entry(runner, tmp_path, corrupt):
    # an entry written for another key or model version, or no text at all,
    # is a cache miss
    _rerun_over(runner, tmp_path, corrupt)


@pytest.mark.parametrize("corrupt", [
    lambda entry: {**entry, "witness": {"n": 2}},
    lambda entry: {**entry, "witness": {**entry["witness"], "curves": []}},
    lambda entry: {**entry, "value": "2"},
    lambda entry: {**entry, "value": None},
], ids=["unparsed-witness", "witness-of-other-curves", "str-value", "null-value"])
def test_selfint_ignores_malformed_cache_entry(runner, tmp_path, corrupt):
    # an entry whose value is not an int, or whose witness does not parse
    # and draw back onto the query, is a cache miss
    _rerun_over(runner, tmp_path, lambda entry: json.dumps(corrupt(entry), sort_keys=True))


def test_unusable_cache_is_a_precondition_error(runner, tmp_path):
    # a cache directory that is a regular file: reads miss, the write exits 2
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    args = ["selfint", "--n", "2", "--cache-dir", str(blocker), "v 2 0 1 2 v"]
    result = _invoke(runner, args)
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and str(blocker) in error["message"]
    # a database file that is not a SQLite database: reads miss, the first
    # write exits 2 naming the file, which is left as it was
    database = tmp_path / "cache" / DATABASE
    database.parent.mkdir()
    database.write_bytes(b"not a database" * 100)
    args = ["selfint", "--n", "2", "--cache-dir", str(database.parent), "v 2 0 1 2 v"]
    result = _invoke(runner, args)
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and str(database) in error["message"]
    assert database.read_bytes() == b"not a database" * 100
    # a catalog keeps its writes in a batch, and writing the batch exits 2
    args = ["enumerate", "--n", "2", "--k", "3", "--cache-dir", str(blocker)]
    result = _invoke(runner, args)
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and str(blocker) in error["message"]


def test_unusable_cache_fails_at_the_first_kept_row(runner, tmp_path, monkeypatch):
    """A batch opens its connection when it keeps its first row, so a catalog
    on an unusable cache location exits 2 after the one search whose answer
    that row is, and not once BATCH_ROWS of them are kept."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    built = []
    init = oracle._Search.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(oracle._Search, "__init__", counted)
    result = _invoke(runner, ["enumerate", "--n", "2", "--k", "6", "--cache-dir", str(blocker)])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and str(blocker) in error["message"]
    assert len(built) == 1


def test_selfint_budget_exit_code(runner, tmp_path):
    result = _invoke(
        runner,
        ["selfint", "--n", "2", "--no-cache", "--budget", "2",
         "v 2 0 1 0 1 0 1 2 v"],
    )
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["exact"] is False


def test_selfint_small_budget_bounds_the_search(runner):
    # the m=10 ladder has two 10-point gaps; its search completes a first
    # order of the first gap at unit 11, but an exact answer needs 1,221
    # units, so a budget of 1000 appended points stops it short of one
    ladder = "v 2 " + "0 1 " * 10 + "2 v"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = _invoke(runner, ["selfint", "--n", "2", "--no-cache", "--budget", "1000", ladder])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 2_000_000, peak
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["exact"] is False
    assert count_crossings(Drawing.from_json(data["witness"])) == data["value"]


def test_selfint_large_clean_gap_within_budget(runner):
    # gap 0 holds 21 points and no chord, so it is ordered last; it costs
    # appended points like every other gap, and 100,000 of them suffice
    word = "v " + "10 0 1 0 2 0 3 0 4 0 5 0 6 0 7 0 8 0 9 0 " * 2 + "10 0 10 v"
    result = _invoke(runner, ["selfint", "--n", "11", "--no-cache", "--budget", "100000", word])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["exact"] is True
    assert data["value"] == 75
    assert count_crossings(Drawing.from_json(data["witness"])) == 75


@pytest.mark.parametrize("args", [["enumerate", "--n", "2", "--k", "3"],
                                  ["graph", "--n", "2", "--k", "3"],
                                  ["growth", "--kmax", "3"]])
def test_enumeration_budget_error_object(runner, args):
    # an incomplete catalog prints the error object instead of a report
    result = _invoke(runner, args + ["--no-cache", "--budget", "5"])
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["error"]["type"] == "EnumerationIncomplete"
    assert data["error"]["message"].startswith("budget exhausted on core")
    assert data["exact"] is False


@pytest.mark.parametrize("command, call", [
    (["selfint", "--n", "2", "v 2 0 1 0 2 v"], "self_intersection_number"),
    (["enumerate", "--n", "2", "--k", "2"], "enumerate_classes"),
])
def test_memory_error_object(runner, monkeypatch, command, call):
    # running out of memory exits 3 with an error object, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"loopforge.cli.{call}", exhausted)
    result = _invoke(runner, command + ["--no-cache"])
    assert result.exit_code == 3
    assert json.loads(result.output) == {
        "error": {"type": "MemoryError", "message": "out of memory"},
        "exact": False,
    }


# A child process that limits its own address space to about 100 MB above
# its size after the imports, runs `setup`, then the CLI on its arguments.
_LIMITED_CLI = """
import resource, sys
from loopforge import cli
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = size + 100 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY
                                        else min(soft, hard), hard))
{setup}
cli.main(sys.argv[1:], prog_name="loopforge")
"""


def _limited_cli(args, setup=""):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI.format(setup=setup), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_memory_error_object_when_memory_runs_out():
    """A command that fills memory with small objects exits 3 with the error
    object, not a traceback and exit 1: the report is made once the frames
    that filled memory are freed.  Before that, 2 of 5 runs exited 1."""
    fill = ("def fill(*args, **kwargs):\n"
            "    hold = None\n"
            "    while True:\n"
            "        hold = (hold, [0] * 16)\n"
            "cli.self_intersection_number = fill")
    for _ in range(5):
        done = _limited_cli(["selfint", "--n", "2", "--no-cache", "v 2 0 1 0 2 v"], fill)
        assert done.returncode == 3, done.stderr[-2000:]
        assert json.loads(done.stdout) == {
            "error": {"type": "MemoryError", "message": "out of memory"},
            "exact": False,
        }


@pytest.mark.parametrize("command, call", [
    (["selfint", "--n", "2", "v 2 0 1 0 2 v"], "self_intersection_number"),
    (["graph", "--n", "2", "--k", "2"], "enumerate_classes"),
])
def test_interrupt_error_object(runner, monkeypatch, command, call):
    # Ctrl-C exits 130 with an error object, not click's "Aborted!" and exit 1
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"loopforge.cli.{call}", interrupted)
    result = _invoke(runner, command + ["--no-cache"])
    assert result.exit_code == 130
    assert json.loads(result.output) == {
        "error": {"type": "Interrupted", "message": "interrupted"},
        "exact": False,
    }


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
    # one below the largest nk whose 2^(sqrt(nk)/3) is a float
    result = _invoke(runner, ["bounds", "--n", "1", "--k", str(3072**2 - 1)])
    assert json.loads(result.output)["fLowerSqrtExp"]["approx"] == "1.79763e+308"


@pytest.mark.parametrize("n, k, reason", [
    (40000, 20000, "digits"),  # 2^(sqrt(nk)/3) is past the largest float as well
    (100000, 3, "digits"),  # (2k)^(2n) has 155,630 digits
    (2200, 1100, "digits"),  # (2k)^(2n) has 14,709 digits
    (1, 4 * 10**2149, "digits"),  # (2k)^2 has 4,300 digits, 484 k^2 4,302
    (1, 3072**2, "largest float"),  # sqrt(nk) / 3 = 1024
])
def test_bounds_too_large_to_print(runner, n, k, reason):
    """Bounds whose numbers do not fit a report are rejected before any
    large power is computed, with an error object and exit 2."""
    result = _invoke(runner, ["bounds", "--n", str(n), "--k", str(k)])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "PreconditionError" and reason in error["message"]


def test_windings_command(runner):
    result = _invoke(runner, ["windings", "--n", "2", "v 2 0 1 0 2 v"])
    data = json.loads(result.output)
    assert data["lowerBound"] == 1
    assert data["windings"][0]["obstacle"] == 1


def test_windings_scans_word_once(runner, monkeypatch):
    """The report's windings and its lower bound come from one scan of the
    word's spans."""
    calls = []
    spans = bounds.obstacle_spans
    monkeypatch.setattr(bounds, "obstacle_spans", lambda *a: calls.append(a) or spans(*a))
    result = _invoke(runner, ["windings", "--n", "2", "v 2 0 1 0 2 1 0 1 2 v"])
    assert result.exit_code == 0
    assert json.loads(result.output)["lowerBound"] == 4
    assert len(calls) == 1


def test_windings_follow_word_not_n(runner):
    # only obstacles between two gaps the word uses can wind, so a huge --n
    # costs nothing and changes nothing for words over gaps 0..2
    for word in ("v 2 0 1 0 2 v", "v 0 1 0 1 2 1 2 1 0 2 0 2 v", "2 0 2 0 1 0 1 2 1 2 0 2"):
        small = _invoke(runner, ["windings", "--n", "3", word])
        huge = _invoke(runner, ["windings", "--n", "100000000", word])
        assert small.exit_code == huge.exit_code == 0
        assert json.loads(small.output)["windings"], word
        assert huge.output == small.output


def test_decompose_command(runner):
    result = _invoke(runner, ["decompose", "--n", "2", "v 2 0 1 0 1 0 1 2 v"])
    data = json.loads(result.output)
    assert data["core"] == "2 0 1 2"
    assert data["vectors"]["01"] == [2]


def test_decompose_single_v_is_not_both_ends(runner):
    """A lone 'v' is not a based word, as in `reduce`, `windings` and
    `selfint`; 'v v' is the empty based word."""
    for command in ("decompose", "reduce", "windings"):
        result = _invoke(runner, [command, "--n", "2", "v"])
        assert result.exit_code == 2, command
        assert json.loads(result.output)["error"] == {
            "type": "PreconditionError",
            "message": "'v' must appear at both ends or not at all",
        }
    result = _invoke(runner, ["decompose", "--n", "2", "v v"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"core": "", "exact": True, "vectors": {}}


def test_decompose_refuses_interior_v_as_every_word_command(runner):
    """A word with 'v' at both ends and inside gets the message `reduce`
    and every other word command give; 'v' at one end only keeps its own.
    A word without 'v' may still have odd length."""
    for word, message in (("v v 2 v", "'v' in the interior of the word"),
                          ("v 2 v 2 v", "'v' in the interior of the word"),
                          ("2 v", "'v' must appear at both ends or not at all")):
        for command in ("decompose", "reduce"):
            result = _invoke(runner, [command, "--n", "2", word])
            assert result.exit_code == 2, (command, word)
            assert json.loads(result.output)["error"] == {
                "type": "PreconditionError", "message": message}, (command, word)
    result = _invoke(runner, ["decompose", "--n", "2", "2 0 1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["core"] == "2 0 1"


def test_count_expansions_command(runner):
    result = _invoke(runner, ["count-expansions", "--l", "2", "--k", "3"])
    data = json.loads(result.output)
    assert data["count"] == "5"


def test_count_expansions_sweep_csv(runner):
    result = _invoke(
        runner,
        ["count-expansions", "--sweep", "--lmax", "2", "--kmax", "2", "--format", "csv"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "length,k,exactCount,mVectorCount,mVectorCap,multinomialZ"
    assert len(lines) == 7


def _csv_matches_json(csv_text, rows, columns):
    """The CSV report has `columns` as its header and one line per JSON row,
    with the row's values in that order, a string as it is and any other
    value as JSON text."""
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(columns)
    assert lines[1:] == [",".join(v if isinstance(v, str) else json.dumps(v)
                                  for v in (row[c] for c in columns)) for row in rows]
    assert all(sorted(row) == sorted(columns) for row in rows)


def test_count_expansions_sweep_json_matches_csv(runner):
    args = ["count-expansions", "--sweep", "--lmax", "3", "--kmax", "4"]
    data = json.loads(_invoke(runner, args + ["--format", "json"]).output)
    assert data["exact"] is True and len(data["rows"]) == 16
    _csv_matches_json(_invoke(runner, args + ["--format", "csv"]).output, data["rows"],
                      ["length", "k", "exactCount", "mVectorCount", "mVectorCap",
                       "multinomialZ"])


def test_count_expansions_large_k(runner):
    """Both counting tables fill one level at a time, so a k far past the
    interpreter's recursion limit still counts."""
    result = _invoke(runner, ["count-expansions", "--l", "3", "--k", "3000"])
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == "753002833"
    result = _invoke(runner, ["count-expansions", "--sweep", "--lmax", "1", "--kmax", "2000",
                              "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 1 + 2 * 2000
    # one entry below k takes any value up to k - 1; its profile is 0 or 1
    # entries at or above each threshold t <= k
    assert lines[-1] == "1,2000,2000,2001," + str(2000**13 * 2**13) + ","
    # a count whose table would take more than 10^7 steps is refused
    result = _invoke(runner, ["count-expansions", "--l", "100", "--k", "100000"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "PreconditionError"


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
@pytest.mark.parametrize("lmax, kmax", [("0", "1000000"), ("1", "20000000"), ("0", "10001")])
def test_count_expansions_refuses_an_oversized_sweep(lmax, kmax):
    """A sweep of more than 10^4 rows is refused with exit 2 before it builds
    a row.  The length-0 rows had no size check, so these sweeps filled
    memory; the child's own address-space limit keeps such a failure from
    the test runner."""
    done = _limited_cli(["count-expansions", "--sweep", "--lmax", lmax, "--kmax", kmax])
    assert done.returncode == 2, done.stderr[-2000:]
    rows = (int(lmax) + 1) * int(kmax)
    assert json.loads(done.stdout) == {"error": {
        "type": "PreconditionError", "message": f"a sweep of {rows} rows is over 10000"}}


def test_count_expansions_refuses_counts_past_the_digit_limit(runner):
    """A count of more than 4300 digits, past the interpreter's int-to-str
    limit, is refused with exit 2; a count of 4300 digits still prints."""
    result = _invoke(runner, ["count-expansions", "--l", "1" + "0" * 250, "--k", "480"])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error == {"type": "PreconditionError",
                     "message": "the count at k=480 has over 4300 digits"}
    result = _invoke(runner, ["count-expansions", "--l", "23" + "0" * 204, "--k", "480"])
    assert result.exit_code == 2
    result = _invoke(runner, ["count-expansions", "--l", "21" + "0" * 204, "--k", "480"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["count"]) == 4300


@pytest.mark.parametrize("args, message", [
    (["--sweep", "--k", "3"], "--k not used with --sweep"),
    (["--sweep", "--l", "2", "--k", "3"], "--l, --k not used with --sweep"),
    (["--l", "2", "--k", "3", "--format", "csv"], "--format not used without --sweep"),
    (["--l", "2", "--k", "3", "--format", "json"], "--format not used without --sweep"),
    (["--l", "2", "--k", "3", "--lmax", "2", "--kmax", "2"],
     "--lmax, --kmax not used without --sweep"),
    (["--l", "2"], "--l and --k are required without --sweep"),
    (["--k", "3"], "--l and --k are required without --sweep"),
])
def test_count_expansions_rejects_options_of_the_other_mode(runner, args, message):
    result = _invoke(runner, ["count-expansions", *args])
    assert result.exit_code == 2
    assert json.loads(result.stdout) == {"error": {"type": "UsageError", "message": message}}


@pytest.mark.parametrize("command, options, words, message", [
    ("canon", ["--hemisphere", "S"], ["0 1 2 1"], "--hemisphere not used with x-words"),
    ("canon", ["--hemisphere", "N"], [""], "--hemisphere not used with x-words"),
    ("equiv", ["--hemi1", "N"], ["0 1 2 1", "1 2"], "--hemi1 not used with x-words"),
    ("equiv", ["--hemi2", "S"], ["0 1 2 1", "1 2"], "--hemi2 not used with x-words"),
    ("pairint", ["--hemi1", "S"], ["0 1 2 1", "1 2"], "--hemi1 not used with x-words"),
    ("pairint", ["--hemi1", "S", "--hemi2", "S"], ["0 1", "1 2"],
     "--hemi1, --hemi2 not used with x-words"),
])
def test_hemisphere_options_refused_on_x_words(runner, tmp_path, command, options, words,
                                               message):
    """An x-word has no first-arc hemisphere, so a hemisphere option given
    with x-words exits 2, before any search; the same words without it, and
    v-words with it, print their reports."""
    args = [command, "--n", "2"] + (["--cache-dir", str(tmp_path)] if command == "pairint" else [])
    result = _invoke(runner, [*args, *options, *words])
    assert result.exit_code == 2
    assert json.loads(result.output) == {"error": {"type": "UsageError", "message": message}}
    assert not any(tmp_path.iterdir())
    v_words = ["v 2 0 1 2 v", "v 2 1 2 v"][:len(words)]
    for given in ([*args, *words], [*args, *options, *v_words]):
        result = _invoke(runner, given)
        assert result.exit_code == 0 and json.loads(result.output)["exact"] is True


@pytest.mark.parametrize("args, message", [
    (["selfint", "--budget", "abc", "v 2 v"],
     "Invalid value for '--budget': 'abc' is not a valid integer."),
    (["nosuch"], "No such command 'nosuch'."),
    (["bounds", "--n", "2"], "Missing option '--k'."),
    (["--bogus", "bounds", "--k", "2"], "No such option '--bogus'."),  # before the command
])
def test_usage_errors_get_an_error_object(runner, args, message):
    result = _invoke(runner, args)
    assert result.exit_code == 2
    assert json.loads(result.stdout) == {"error": {"type": "UsageError", "message": message}}


def test_help_is_not_a_usage_error(runner):
    # a bare `loopforge` prints its help on stderr, and `--help` on stdout
    bare = _invoke(runner, [])
    assert bare.exit_code == 2
    assert bare.stdout == "" and bare.stderr.startswith("Usage:")
    asked = _invoke(runner, ["--help"])
    assert asked.exit_code == 0
    assert asked.stdout.startswith("Usage:") and "Commands:" in asked.stdout


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


def test_growth_json_matches_csv(runner, tmp_path):
    args = ["growth", "--kmax", "3", "--cache-dir", str(tmp_path)]
    data = json.loads(_invoke(runner, args + ["--format", "json"]).output)
    assert data["exact"] is True and [row["k"] for row in data["rows"]] == [1, 2, 3]
    _csv_matches_json(_invoke(runner, args + ["--format", "csv"]).output, data["rows"],
                      ["k", "classCountN2", "countUncertainty", "classCountN1",
                       "lnCountOverSqrtK", "fUpperDoubleExpExponent", "exact"])


def test_run_config_validation(runner):
    result = _invoke(runner, ["selfint", "--n", "2", "--budget", "0", "v 2 v"])
    assert result.exit_code == 2
    # the provable length cap is the only one; there is no option to set it
    for command in ("enumerate", "graph"):
        result = _invoke(runner, [command, "--n", "2", "--k", "3", "--length-cap", "80"])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["type"] == "UsageError"
    result = _invoke(runner, ["graph", "--n", "2", "--k", "1", "--jobs", "0"])
    assert result.exit_code == 2


def test_commands_registered_once():
    assert sorted(main.commands) == [
        "bounds", "canon", "count-expansions", "decompose", "enumerate", "equiv",
        "graph", "growth", "pairint", "reduce", "selfint", "windings",
    ]


def test_oracle_options_only_where_used():
    oracle_commands = {"selfint", "pairint", "enumerate", "graph", "growth"}
    for name, command in main.commands.items():
        params = {p.name for p in command.params}
        for option in ("budget", "cache_dir", "no_cache"):
            assert (option in params) == (name in oracle_commands), (name, option)
    # the growth table is defined for two punctures only
    assert "n" not in {p.name for p in main.commands["growth"].params}


def test_jobs_only_on_graph(runner):
    """Only the graph's pair searches run in worker processes: a catalog
    runs in one process, so `enumerate` and `growth` take no `--jobs`."""
    for name, command in main.commands.items():
        assert ("jobs" in {p.name for p in command.params}) == (name == "graph"), name
    for args in (["enumerate", "--n", "2", "--k", "3"], ["growth", "--kmax", "2"]):
        result = _invoke(runner, [*args, "--jobs", "2", "--no-cache"])
        assert result.exit_code == 2
        assert json.loads(result.output) == {
            "error": {"type": "UsageError", "message": "No such option '--jobs'."}}
    assert "jobs" not in inspect.signature(enumerate_classes).parameters
    assert "jobs" not in inspect.signature(growth_report).parameters
    assert "jobs" in inspect.signature(compatibility_graph).parameters


@pytest.mark.parametrize("args", [
    ["enumerate", "--n", "2", "--k", "4"],
    ["graph", "--n", "2", "--k", "4"],
])
def test_cache_does_not_change_reports(runner, tmp_path, args):
    """Without a cache, with a fresh one and with a warm one, a report has
    the same bytes: a cache hit draws its witness on the query's curves."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    outputs = [_invoke(runner, args + flags).output for flags in (["--no-cache"], cache, cache)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0].splitlines()[0])["exact"] is True


@pytest.mark.parametrize("queries", [
    [(["selfint"], ["v 2 0 1 2 v"]), (["selfint"], ["v 2 1 0 2 v"])],
    [(["pairint", "--hemi2", "S"], ["v 2 0 1 2 v", "v 2 1 0 2 v"]),
     (["pairint", "--hemi1", "S"], ["v 2 1 0 2 v", "v 2 0 1 2 v"])],
    [(["pairint"], ["0 1 2 0", "1 2"]), (["pairint"], ["1 2", "0 1 2 0"])],
])
def test_witness_draws_the_query(runner, tmp_path, queries):
    """Each witness draws the query's own letters, and a reversed or swapped
    query that shares the cache entry prints what it prints without one."""
    cache = ["--cache-dir", str(tmp_path)]
    for command, words in queries:
        outputs = [_invoke(runner, command + ["--n", "2"] + flags + words).output
                   for flags in (["--no-cache"], cache, cache)]
        assert outputs[0] == outputs[1] == outputs[2], command + words
        data = json.loads(outputs[0])
        witness = Drawing.from_json(data["witness"])
        assert [format_letters(c.letters) for c in witness.curves] == words
        assert count_crossings(witness) == data["value"]
    # the second query of each set read the entry the first one wrote
    assert len(cache_rows(tmp_path)) == 1


def test_reports_deterministic(runner, tmp_path):
    """The same command against a cold cache twice gives identical bytes."""
    outputs = []
    for attempt in (1, 2):
        cache = tmp_path / f"cache{attempt}"
        args = ["enumerate", "--n", "2", "--k", "2", "--cache-dir", str(cache)]
        outputs.append(_invoke(runner, args).output)
    assert outputs[0] == outputs[1]


def test_selfint_memory_follows_word_not_n(runner):
    # only the gaps holding crossings get an entry, in the search and in the
    # witness, so a huge --n costs nothing
    result = _invoke(runner, ["selfint", "--n", "100000000", "--no-cache", "0 1"])
    assert result.exit_code == 0
    assert len(result.output) < 1024
    data = json.loads(result.output)
    assert set(data["witness"]["gapOrders"]) == {"0", "1"}
    assert count_crossings(Drawing.from_json(data["witness"])) == data["value"]
