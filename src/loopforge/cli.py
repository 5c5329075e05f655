"""Command-line front end.

Every report is JSON (or CSV for tabular reports) on stdout and carries an
"exact" flag.  Exit codes: 0 success, 2 precondition violation (with a
machine-readable error object), 3 oracle budget exhausted (report emitted
with exact=false, or an error object when a catalog is incomplete).  Large
numbers are emitted as decimal strings.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys

import click

from .bounds import analytic_bounds, find_windings, winding_self_lower_bound
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
    format_letters,
    parse_letters,
    parse_word,
    reduce_word,
)

EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


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
    """Turns a precondition violation into exit 2 and an enumeration that ran
    out of oracle budget into exit 3, each with an error object on stdout."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except PreconditionError as exc:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            sys.exit(EXIT_PRECONDITION)
        except EnumerationIncompleteError as exc:
            _emit({"error": {"type": "EnumerationIncomplete", "message": str(exc)},
                   "exact": False})
            sys.exit(EXIT_BUDGET)


n_option = click.option("--n", "n", type=int, default=2, show_default=True,
                        help="number of punctures")


def oracle_options(fn):
    """Add the oracle options and pass the command one `config` argument."""

    @functools.wraps(fn)
    def command(budget: int, cache_dir: str | None, no_cache: bool, **kwargs):
        config = OracleConfig(budget=budget, cache_dir=cache_dir, use_cache=not no_cache)
        return fn(config=config, **kwargs)

    command = n_option(command)
    command = click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
                           help="oracle evaluation budget")(command)
    command = click.option("--cache-dir", type=str, default=None,
                           help="oracle cache directory "
                                "(default: $LOOPFORGE_CACHE or ./.loopforge-cache)")(command)
    return click.option("--no-cache", is_flag=True, help="disable the oracle cache")(command)


def _two_classes(word1: str, word2: str, n: int, hemi1: str, hemi2: str):
    """Parse two words of one kind into their homotopy classes."""
    alphabet = GapAlphabet(n)
    w1, w2 = parse_word(word1, alphabet), parse_word(word2, alphabet)
    if w1.kind != w2.kind:
        raise PreconditionError("cannot mix words of different kinds")
    if w1.kind == "v":
        return canon_v(w1, hemi1), canon_v(w2, hemi2)
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
    cls = canon_v(word, hemisphere) if word.kind == "v" else canon_x(word)
    _emit({"class": cls.to_json(), "exact": True})


@main.command()
@n_option
@click.option("--hemi1", type=click.Choice("NS"), default=NORTH, show_default=True)
@click.option("--hemi2", type=click.Choice("NS"), default=NORTH, show_default=True)
@click.argument("word1")
@click.argument("word2")
def equiv(word1: str, word2: str, n: int, hemi1: str, hemi2: str) -> None:
    """Whether two words name the same homotopy class."""
    c1, c2 = _two_classes(word1, word2, n, hemi1, hemi2)
    _emit({"equivalent": c1 == c2, "class1": c1.to_json(), "class2": c2.to_json(), "exact": True})


@main.command()
@oracle_options
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
@click.option("--hemi1", type=click.Choice("NS"), default=NORTH, show_default=True)
@click.option("--hemi2", type=click.Choice("NS"), default=NORTH, show_default=True)
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
@click.option("--k", type=int, required=True, help="crossing budget")
def bounds(n: int, k: int) -> None:
    """Closed-form bounds on the extremal family sizes."""
    _emit(analytic_bounds(n, k).to_json())


@main.command()
@n_option
@click.argument("word_text")
def windings(word_text: str, n: int) -> None:
    """Windings of a word and the resulting self-crossing lower bound."""
    alphabet = GapAlphabet(n)
    word = parse_word(word_text, alphabet)
    found = find_windings(word, alphabet)
    lb = winding_self_lower_bound(word, alphabet)
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
            "lowerBound": lb,
            "exact": True,
        }
    )


@main.command()
@n_option
@click.argument("word_text")
def decompose_cmd(word_text: str, n: int) -> None:
    """Core word and expansion vectors of a word without adjacent repeats."""
    letters = parse_letters(word_text, GapAlphabet(n))
    if letters and letters[0] == V and letters[-1] == V:
        letters = letters[1:-1]
    if V in letters:
        raise PreconditionError("'v' must appear at both ends or not at all")
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
@click.option("--k", type=int, required=True, help="crossing budget")
@click.option("--sweep", is_flag=True, help="emit a CSV sweep over lengths and budgets")
@click.option("--lmax", type=int, default=8, show_default=True)
@click.option("--kmax", type=int, default=16, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def count_expansions(length: int | None, k: int, sweep: bool, lmax: int, kmax: int,
                     fmt: str) -> None:
    """Count expansion vectors whose forced-crossing bound stays below k."""
    if sweep:
        rows = sweep_rows(range(0, lmax + 1), range(1, kmax + 1))
        rows = [
            {key: ("" if val is None else str(val)) for key, val in row.items()}
            for row in rows
        ]
        if fmt == "csv":
            _emit_csv(rows, ["length", "k", "exactCount", "mVectorCount",
                             "mVectorCap", "multinomialZ"])
        else:
            _emit({"rows": rows, "exact": True})
        return
    if length is None:
        raise PreconditionError("--l is required without --sweep")
    value = count_vectors_exact(length, k)
    _emit({"count": str(value), "length": length, "k": k, "exact": True})


@main.command(name="enumerate")
@oracle_options
@click.option("--k", type=int, required=True, help="crossing budget")
@click.option("--length-cap", "cap", type=int, default=None,
              help="override the provable length cap")
@click.option("--jobs", type=int, default=1, show_default=True)
def enumerate_cmd(n: int, k: int, cap: int | None, jobs: int, config: OracleConfig) -> None:
    """Catalog of loop classes with self-crossing number below k (JSONL)."""
    catalog = enumerate_classes(n, k, config, length_cap_override=cap, jobs=jobs)
    header = dict(catalog.to_json())
    entries = header.pop("entries")
    _emit(header)
    for entry in entries:
        _emit(entry)


@main.command()
@oracle_options
@click.option("--k", type=int, required=True, help="crossing budget")
@click.option("--length-cap", "cap", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
def graph(n: int, k: int, cap: int | None, jobs: int, config: OracleConfig) -> None:
    """Compatibility graph of the class catalog, with clique bounds."""
    catalog = enumerate_classes(n, k, config, length_cap_override=cap, jobs=jobs)
    g = compatibility_graph(catalog, config, jobs=jobs)
    out = g.to_json()
    out["familyBounds"] = family_bounds(g).to_json()
    _emit(out)
    if not g.complete:
        sys.exit(EXIT_BUDGET)


@main.command()
@oracle_options
@click.option("--kmax", type=int, required=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv",
              show_default=True)
def growth(kmax: int, n: int, jobs: int, fmt: str, config: OracleConfig) -> None:
    """Class-count growth table for k = 1..kmax (two punctures)."""
    if n != 2:
        raise PreconditionError("the growth table is defined for two punctures")
    rows = growth_report(kmax, config, jobs=jobs)
    if fmt == "csv":
        str_rows = [
            {
                key: (json.dumps(val) if isinstance(val, bool) else str(val))
                for key, val in row.items()
            }
            for row in rows
        ]
        _emit_csv(str_rows, ["k", "classCountN2", "countUncertainty", "classCountN1",
                             "lnCountOverSqrtK", "fUpperDoubleExpExponent", "exact"])
    else:
        _emit({"rows": rows, "exact": True})


main.add_command(decompose_cmd, name="decompose")


if __name__ == "__main__":
    main()
