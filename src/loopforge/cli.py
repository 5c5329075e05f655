"""Command-line front end.

Every report is JSON (or CSV for tabular reports) on stdout and carries an
"exact" flag.  Exit codes: 0 success, 2 precondition violation or usage
error (with a machine-readable error object), 3 oracle budget exhausted
(report emitted with exact=false, or an error object when a catalog is
incomplete) or memory exhausted (an error object), 130 interrupted by Ctrl-C
(an `Interrupted` error object instead of a report).  Large numbers are
emitted as decimal strings.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys

import click
from click.core import ParameterSource

from .bounds import MAX_REPORT_DIGITS, analytic_bounds, best_obstacle_bound, find_windings
from .cache import default_cache_dir
from .canon import canon_v, canon_x
from .expansion import count_vectors_exact, decompose, sweep_rows
from .extremal import (
    EnumerationIncompleteError,
    compatibility_graph,
    enumerate_classes,
    family_bounds,
    growth_report,
)
from .oracle import DEFAULT_BUDGET, OracleConfig, pair_intersection_number, self_intersection_number
from .words import (
    NORTH,
    V,
    GapAlphabet,
    PreconditionError,
    Word,
    format_letters,
    parse_letters,
    parse_word,
    reduce_word,
)

EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it


def _emit(obj: dict) -> None:
    click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_csv(rows: list[dict], columns: list[str]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    click.echo(buffer.getvalue(), nl=False)


class _Group(click.Group):
    """Turns a precondition violation or a usage error, also one before the
    command name, into exit 2, an enumeration that ran out of oracle budget
    or a run out of memory into exit 3, and an interrupt into exit 130, each
    with an error object on stdout."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        return self._reported(super().parse_args, ctx, args)

    def invoke(self, ctx: click.Context):
        return self._reported(super().invoke, ctx)

    @staticmethod
    def _reported(call, *args):
        try:
            return call(*args)
        except click.exceptions.NoArgsIsHelpError:
            raise  # a bare `loopforge` prints its help
        except (PreconditionError, click.UsageError) as exc:
            usage = isinstance(exc, click.UsageError)
            _emit({"error": {"type": "UsageError" if usage else type(exc).__name__,
                             "message": exc.format_message() if usage else str(exc)}})
            sys.exit(EXIT_PRECONDITION)
        except EnumerationIncompleteError as exc:
            _emit({"error": {"type": "EnumerationIncomplete", "message": str(exc)},
                   "exact": False})
            sys.exit(EXIT_BUDGET)
        except KeyboardInterrupt:
            _emit({"error": {"type": "Interrupted", "message": "interrupted"}, "exact": False})
            sys.exit(EXIT_INTERRUPTED)
        except MemoryError as exc:
            message = str(exc) or "out of memory"
        # reported after the except block, whose traceback holds the frames
        # that filled memory: leaving the block frees them for the report
        _emit({"error": {"type": "MemoryError", "message": message}, "exact": False})
        sys.exit(EXIT_BUDGET)


n_option = click.option("--n", "n", type=int, default=2, show_default=True,
                        help="number of punctures")
k_option = click.option("--k", type=int, required=True, help="crossing budget")


def _refuse_given(names: tuple[str, ...], why: str) -> None:
    """Exit 2 when the command line gives any of the named parameters,
    which the command will not read: "--hemi1 not used with x-words"."""
    ctx = click.get_current_context()
    given = [p.opts[0] for p in ctx.command.params if p.name in names
             and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
    if given:
        raise click.UsageError(f"{', '.join(given)} not used {why}")


def oracle_options(fn):
    """Add the oracle options and pass the command one `config` argument,
    whose cache directory is resolved once for the whole command."""

    @functools.wraps(fn)
    def command(budget: int, cache_dir: str | None, no_cache: bool, **kwargs):
        if not cache_dir and not no_cache:
            cache_dir = default_cache_dir()
        config = OracleConfig(budget=budget, cache_dir=cache_dir, use_cache=not no_cache)
        return fn(config=config, **kwargs)

    command = click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
                           help="search budget per oracle call, in units of one point "
                                "appended to a gap's order; a catalog prefix that its "
                                "grown drawing keeps below k runs no search")(command)
    command = click.option("--cache-dir", type=str, default=None,
                           help="oracle cache directory "
                                "(default: $LOOPFORGE_CACHE or ./.loopforge-cache)")(command)
    return click.option("--no-cache", is_flag=True, help="disable the oracle cache")(command)


def hemisphere_options(fn):
    """Add --hemi1 and --hemi2, the first-arc hemispheres of two v-words."""
    for name in ("--hemi2", "--hemi1"):
        fn = click.option(name, type=click.Choice("NS"), default=NORTH, show_default=True)(fn)
    return fn


def _two_classes(word1: str, word2: str, n: int, hemi1: str, hemi2: str):
    """Parse two words of one kind into their homotopy classes."""
    alphabet = GapAlphabet(n)
    w1, w2 = parse_word(word1, alphabet), parse_word(word2, alphabet)
    if w1.kind != w2.kind:
        raise PreconditionError("cannot mix words of different kinds")
    if w1.kind == "v":
        return canon_v(w1, hemi1), canon_v(w2, hemi2)
    _refuse_given(("hemi1", "hemi2"), "with x-words")
    return canon_x(w1), canon_x(w2)


@click.group(cls=_Group)
def main() -> None:
    """Loop words in a punctured plane: canonical forms, crossing minima,
    lower bounds, and class catalogs."""


@main.command()
@n_option
@click.argument("word_text")
def reduce(word_text: str, n: int) -> None:
    """Reduce a word to its canonical form."""
    red = reduce_word(parse_word(word_text, GapAlphabet(n)))
    _emit(
        {
            "word": red.word.to_json(),
            "text": str(red.word),
            "strippedPrefixParity": red.stripped_prefix_parity,
            "exact": True,
        }
    )


@main.command()
@n_option
@click.option("--hemisphere", type=click.Choice("NS"), default=NORTH, show_default=True,
              help="hemisphere of the loop's first arc (v-words)")
@click.argument("word_text")
def canon(word_text: str, n: int, hemisphere: str) -> None:
    """Canonical homotopy-class descriptor of a word."""
    word = parse_word(word_text, GapAlphabet(n))
    if word.kind == "x":
        _refuse_given(("hemisphere",), "with x-words")
    cls = canon_v(word, hemisphere) if word.kind == "v" else canon_x(word)
    _emit({"class": cls.to_json(), "exact": True})


@main.command()
@n_option
@hemisphere_options
@click.argument("word1")
@click.argument("word2")
def equiv(word1: str, word2: str, n: int, hemi1: str, hemi2: str) -> None:
    """Whether two words name the same homotopy class."""
    c1, c2 = _two_classes(word1, word2, n, hemi1, hemi2)
    _emit({"equivalent": c1 == c2, "class1": c1.to_json(), "class2": c2.to_json(), "exact": True})


@main.command()
@oracle_options
@n_option
@click.argument("word_text")
def selfint(word_text: str, n: int, config: OracleConfig) -> None:
    """Minimal self-intersection number of a word."""
    alphabet = GapAlphabet(n)
    result = self_intersection_number(parse_word(word_text, alphabet), alphabet, config)
    _emit(result.to_json())
    if not result.exact:
        sys.exit(EXIT_BUDGET)


@main.command()
@oracle_options
@n_option
@hemisphere_options
@click.argument("word1")
@click.argument("word2")
def pairint(word1: str, word2: str, n: int, hemi1: str, hemi2: str,
            config: OracleConfig) -> None:
    """Minimal pairwise intersection number of two loop classes."""
    c1, c2 = _two_classes(word1, word2, n, hemi1, hemi2)
    result = pair_intersection_number(c1, c2, GapAlphabet(n), config)
    _emit(result.to_json())
    if not result.exact:
        sys.exit(EXIT_BUDGET)


@main.command()
@n_option
@k_option
def bounds(n: int, k: int) -> None:
    """Closed-form bounds on the extremal family sizes."""
    _emit(analytic_bounds(n, k))


@main.command()
@n_option
@click.argument("word_text")
def windings(word_text: str, n: int) -> None:
    """Windings of a word and the resulting self-crossing lower bound."""
    alphabet = GapAlphabet(n)
    word = parse_word(word_text, alphabet)
    found = find_windings(word, alphabet)
    _emit(
        {
            "windings": [
                {
                    "obstacle": w.obstacle,
                    "depth": w.depth,
                    "start": w.span.start,
                    "end": w.span.end,
                    "form": w.form,
                }
                for w in found
            ],
            "lowerBound": best_obstacle_bound((w.obstacle, w.depth) for w in found),
            "exact": True,
        }
    )


@main.command(name="decompose")
@n_option
@click.argument("word_text")
def decompose_cmd(word_text: str, n: int) -> None:
    """Core word and expansion vectors of a word without adjacent repeats."""
    letters = parse_letters(word_text, GapAlphabet(n))
    if V in letters:  # a word without 'v' may have odd length here
        letters = Word(letters, "v").inner()
    dec = decompose(letters)
    _emit(
        {
            "core": format_letters(dec.core),
            "vectors": {
                f"{a}{b}": list(v) for (a, b), v in sorted(dec.vectors.items())
            },
            "exact": True,
        }
    )


@main.command(name="count-expansions")
@click.option("--l", "length", type=int, help="expansion vector length")
@click.option("--k", type=int, help="crossing budget; required without --sweep")
@click.option("--sweep", is_flag=True, help="emit a CSV sweep over lengths and budgets")
@click.option("--lmax", type=int, default=8, show_default=True)
@click.option("--kmax", type=int, default=16, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def count_expansions(length: int | None, k: int | None, sweep: bool, lmax: int, kmax: int,
                     fmt: str) -> None:
    """Count expansion vectors whose forced-crossing bound stays below k."""
    if sweep:
        _refuse_given(("length", "k"), "with --sweep")
        rows = [{key: "" if val is None else str(val) for key, val in row.items()}
                for row in sweep_rows(range(0, lmax + 1), range(1, kmax + 1))]
        if fmt == "csv":
            _emit_csv(rows, ["length", "k", "exactCount", "mVectorCount",
                             "mVectorCap", "multinomialZ"])
        else:
            _emit({"rows": rows, "exact": True})
        return
    _refuse_given(("lmax", "kmax", "fmt"), "without --sweep")
    if length is None or k is None:
        raise click.UsageError("--l and --k are required without --sweep")
    value = count_vectors_exact(length, k)
    if value >= 10**MAX_REPORT_DIGITS:  # more digits than a report prints
        raise PreconditionError(f"the count at k={k} has over {MAX_REPORT_DIGITS} digits")
    _emit({"count": str(value), "length": length, "k": k, "exact": True})


@main.command(name="enumerate")
@oracle_options
@n_option
@k_option
def enumerate_cmd(n: int, k: int, config: OracleConfig) -> None:
    """Catalog of loop classes with self-crossing number below k (JSONL)."""
    catalog = enumerate_classes(n, k, config)
    header = dict(catalog.to_json())
    entries = header.pop("entries")
    _emit(header)
    for entry in entries:
        _emit(entry)


@main.command()
@oracle_options
@n_option
@k_option
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes of the pair searches")
def graph(n: int, k: int, jobs: int, config: OracleConfig) -> None:
    """Compatibility graph of the class catalog, with clique bounds."""
    catalog = enumerate_classes(n, k, config)
    g = compatibility_graph(catalog, config, jobs=jobs)
    out = g.to_json()
    out["familyBounds"] = family_bounds(g).to_json()
    _emit(out)
    if not g.complete:
        sys.exit(EXIT_BUDGET)


@main.command()
@oracle_options
@click.option("--kmax", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv",
              show_default=True)
def growth(kmax: int, fmt: str, config: OracleConfig) -> None:
    """Class-count growth table for k = 1..kmax (two punctures)."""
    rows = growth_report(kmax, config)
    if fmt == "csv":
        _emit_csv([{key: json.dumps(val) if isinstance(val, bool) else val
                    for key, val in row.items()} for row in rows],
                  ["k", "classCountN2", "countUncertainty", "classCountN1",
                   "lnCountOverSqrtK", "fUpperDoubleExpExponent", "exact"])
    else:
        _emit({"rows": rows, "exact": True})


if __name__ == "__main__":
    main()
