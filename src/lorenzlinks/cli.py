"""Command-line front end and the census ("atlas") builder.

The atlas is a JSON-lines file, one record per canonical word in
(length, spelling) order, every field recomputable from the word alone.
Records are emitted compactly with a fixed key order, so rebuilding an atlas
with the same arguments is byte-identical.  Generation is embarrassingly
parallel by word length (the merge would be a sorted concatenation), but the
built-in builder is sequential.

Subcommands: word info, convert, jones, modular {encode, decode, rademacher},
flow itinerary, atlas {build, query}.  Exit codes: 0 success, 2 validation
error, 3 resource cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from . import braid as braid_mod
from . import flow as flow_mod
from . import invariants as inv_mod
from . import jones as jones_mod
from . import modular as mod_mod
from . import tlink as tlink_mod
from . import words as words_mod
from .errors import (
    AmbiguousSymbolError,
    BadFilterError,
    CapExceededError,
    NonFiniteError,
    ResourceCapError,
    ValidationError,
)

MAX_ATLAS_LEN = 18
# in parse order: a two-letter operator before the one-letter one it contains
_FILTER_OPS = {
    "<=": operator.le,
    ">=": operator.ge,
    "!=": operator.ne,
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
}
_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# atlas records


def word_record(
    word: words_mod.CyclicWord, braid: braid_mod.LorenzBraid, jones_max_crossings: int = 0
) -> dict:
    """The full atlas record of one canonical word and its Lorenz braid;
    every field derives from the word, and this is the one place the
    record's key names and order are written."""
    record = inv_mod.compute_record(braid)
    jones_pairs = None
    if jones_max_crossings and record.crossings <= jones_max_crossings:
        gens = braid_mod.braid_generators(braid)
        poly = jones_mod.jones_of_braid(gens, braid.n, max_crossings=jones_max_crossings)
        jones_pairs = [list(pair) for pair in poly.pairs()]
    return {
        "word": str(word),
        "length": len(word),
        "components": record.components,
        "n": record.strands,
        "c": record.crossings,
        "trip": [list(pq) for pq in record.trip],
        "LL": record.ll,
        "LR": record.lr,
        "RL": record.rl,
        "RR": record.rr,
        "genus": record.genus,
        "chi": record.chi,
        "braid_index": record.braid_index,
        "c_min": record.min_crossings,
        "torus": list(record.torus) if record.torus else None,
        "jones": jones_pairs,
    }


def build_atlas(max_len: int, jones_max_crossings: int = 0) -> Iterator[str]:
    """JSON lines for every canonical word of length <= max_len, in
    (length, spelling) order.  Raises CapExceededError above MAX_ATLAS_LEN."""
    _check_atlas_cap(max_len)
    for word in words_mod.enumerate_words(max_len):
        braid = braid_mod.braid_of_words(words_mod.LinkWords((word,)))
        yield json.dumps(word_record(word, braid, jones_max_crossings), separators=(",", ":"))


def _check_atlas_cap(max_len: int) -> None:
    if max_len > MAX_ATLAS_LEN:
        raise CapExceededError(f"max_len {max_len} exceeds the cap of {MAX_ATLAS_LEN}")


def verify_record(record: dict) -> None:
    """Consistency relations every atlas record must satisfy on load."""
    n, c = record["n"], record["c"]
    if record["chi"] != n - c:
        raise ValidationError(f"corrupt atlas record {record['word']}: chi != n - c")
    if record["LL"] + record["LR"] + record["RL"] + record["RR"] != n:
        raise ValidationError(f"corrupt atlas record {record['word']}: ear counts != n")
    if record["LR"] != record["RL"]:
        raise ValidationError(f"corrupt atlas record {record['word']}: |LR| != |RL|")
    if record["components"] == 1:
        g, bi, c_min = record["genus"], record["braid_index"], record["c_min"]
        if 2 * g != c - n + 1:
            raise ValidationError(f"corrupt atlas record {record['word']}: 2g != c - n + 1")
        if c_min != 2 * g + bi - 1:
            raise ValidationError(f"corrupt atlas record {record['word']}: c_min relation")
        if record["torus"] is not None:
            p, q = record["torus"]
            if g != (p - 1) * (q - 1) // 2:
                raise ValidationError(f"corrupt atlas record {record['word']}: torus genus")
    if record["jones"] is not None:
        # pairs carry quarter exponents, so span V <= c reads max - min <= 4c
        exponents = [exponent for exponent, _ in record["jones"]]
        if not exponents or max(exponents) - min(exponents) > 4 * c:
            raise ValidationError(f"corrupt atlas record {record['word']}: Jones span > c")


def parse_filter(expression: str) -> tuple[str, str, object]:
    """Parse ``field OP value`` with OP in =, !=, <=, >=, <, >."""
    for op in _FILTER_OPS:
        if op in expression:
            field, _, raw = expression.partition(op)
            field, raw = field.strip(), raw.strip()
            if not field or not raw:
                raise BadFilterError(f"cannot parse filter {expression!r}")
            try:
                return field, op, _parse_filter_value(raw)
            except ValueError as exc:  # an integer beyond the interpreter's digit limit
                raise BadFilterError(
                    f"cannot read the value of filter {expression!r}: {exc}"
                ) from exc
    raise BadFilterError(f"no comparison operator in {expression!r}")


def _parse_filter_value(raw: str) -> object:
    if raw == "null":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw and all(part.strip().isdigit() for part in raw.split(",")):
        return [int(part) for part in raw.split(",")]
    return raw


def record_matches(record: dict, filters: Iterable[tuple[str, str, object]]) -> bool:
    """Whether the record passes every filter.  Ordering null against
    anything raises TypeError and is no match; any other unorderable pair is
    a bad filter."""
    for field, op, value in filters:
        if field not in record:
            raise BadFilterError(f"unknown field {field!r}")
        actual = record[field]
        try:
            if not _FILTER_OPS[op](actual, value):
                return False
        except TypeError as exc:
            if actual is None or value is None:
                return False
            raise BadFilterError(f"cannot order {field!r} against {value!r}") from exc
    return True


def query_atlas(
    lines: Iterable[str], filters: Iterable[tuple[str, str, object]]
) -> Iterator[dict]:
    """Stream records matching every filter, verifying each record on load."""
    filters = list(filters)
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            verify_record(record)
        except KeyError as exc:
            raise ValidationError(f"atlas line {number}: no field {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"atlas line {number}: {exc}") from exc
        if record_matches(record, filters):
            yield record


# ---------------------------------------------------------------------------
# output helpers


def _emit(rows: Iterable[dict], fmt: str, stream: TextIO) -> None:
    """Write rows as JSON lines, as key-value tables separated by a blank
    line, or as CSV under the first row's header."""
    for number, row in enumerate(rows):
        if fmt == "json":
            print(json.dumps(row, separators=(",", ":")), file=stream)
        elif fmt == "table":
            if number:
                print(file=stream)
            width = max(len(k) for k in row)
            for key, value in row.items():
                print(f"{key:<{width}}  {_plain(value)}", file=stream)
        else:
            if not number:
                print(",".join(row.keys()), file=stream)
            print(",".join(_csv_cell(v) for v in row.values()), file=stream)


def _plain(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _csv_cell(value: object) -> str:
    text = _plain(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_word_info(args: argparse.Namespace) -> int:
    word = words_mod.canonicalize(args.word)
    braid = braid_mod.braid_of_words(words_mod.LinkWords((word,)))
    record = word_record(word, braid)
    payload = {
        "word": record["word"],
        "length": record["length"],
        # the rank of each successive rotation: the braid's cycle through strand 1
        "new_positions": list(braid.cycles()[0]),
        "targets": list(braid.targets),
        "over_strands": len(braid.over_positions),
        "under_strands": len(braid.under_positions),
        **{k: record[k] for k in (
            "trip", "LL", "LR", "RL", "RR", "components", "n", "c",
            "genus", "chi", "braid_index", "c_min", "torus",
        )},
    }
    _emit([payload], args.format, sys.stdout)
    return 0


def _parse_pairs(text: str) -> tlink_mod.TLinkParams:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer beyond the digit limit
        raise ValidationError(f"cannot parse parameter list {text!r}: {exc}") from exc
    if not isinstance(data, list) or not all(
        isinstance(pq, list) and len(pq) == 2 for pq in data
    ):
        raise ValidationError("parameters must be a JSON array of [p, q] pairs")
    return tlink_mod.TLinkParams.from_pairs(data)


def _braid_from_source(source: str) -> braid_mod.LorenzBraid:
    if source.lstrip().startswith("["):
        return tlink_mod.to_lorenz(_parse_pairs(source))
    return braid_mod.braid_of_words(words_mod.validate_link([source]))


def _cmd_convert(args: argparse.Namespace) -> int:
    braid = _braid_from_source(args.source)
    if args.to == "braid":
        payload = braid.to_json_dict()
    elif args.to == "tlink":
        payload = {"pairs": tlink_mod.from_lorenz(braid).to_json_list()}
    else:  # word
        payload = {"words": [str(w) for w in braid_mod.words_of_braid(braid)]}
    _emit([payload], args.format, sys.stdout)
    return 0


def _cmd_jones(args: argparse.Namespace) -> int:
    tokens = [tok.strip() for tok in args.target.split(",")]
    if all(tok.isdigit() for tok in tokens) and len(tokens) == 2:
        try:
            p, q = (int(tok) for tok in tokens)
        except ValueError as exc:  # an integer beyond the interpreter's digit limit
            raise ValidationError(f"cannot read torus pair {args.target!r}: {exc}") from exc
        poly = jones_mod.jones_torus(p, q)
        source = f"torus({p},{q})"
    else:
        link = words_mod.validate_link(tokens)
        braid = braid_mod.braid_of_words(link)
        gens = braid_mod.braid_generators(braid)
        poly = jones_mod.jones_of_braid(
            gens, braid.n, max_crossings=args.jones_max_crossings
        )
        source = ",".join(str(w) for w in link.words)
    payload = {
        "source": source,
        "jones": poly.format(),
        "pairs": [list(pair) for pair in poly.pairs()],
    }
    _emit([payload], args.format, sys.stdout)
    return 0


def _cmd_modular(args: argparse.Namespace) -> int:
    if args.action == "encode":
        matrix = mod_mod.matrix_of_word(args.value)
        _emit([{"matrix": matrix.to_rows(), "trace": matrix.trace}], args.format, sys.stdout)
    elif args.action == "decode":
        try:
            rows = json.loads(args.value)
        except ValueError as exc:
            raise ValidationError(f"cannot parse matrix {args.value!r}: {exc}") from exc
        word = mod_mod.word_of_matrix(mod_mod.Mat2Z.from_rows(rows))
        _emit([{"word": str(word)}], args.format, sys.stdout)
    else:  # rademacher
        word = words_mod.canonicalize(args.value)
        value = mod_mod.rademacher(word)
        matrix = mod_mod.matrix_of_word(word)
        payload = {
            "word": str(word),
            "rademacher": value,
            "phi": str(mod_mod.rademacher_phi(matrix)),
            "psi": mod_mod.rademacher_psi(matrix),
        }
        _emit([payload], args.format, sys.stdout)
    return 0


def _cmd_flow_itinerary(args: argparse.Namespace) -> int:
    try:
        x, y, z = (float(part) for part in args.seed_state.split(","))
    except ValueError as exc:
        raise ValidationError(f"seed state must be x,y,z: {args.seed_state!r}") from exc
    trajectory = flow_mod.integrate((x, y, z), dt=args.dt, steps=args.steps)
    symbols = flow_mod.itinerary(trajectory, skip_transient=args.skip_transient)
    if args.csv:
        _write_atomically(args.csv, trajectory.write_csv)
    print(symbols)
    return 0


def _write_lines(handle: TextIO, lines: Iterable[str]) -> int:
    count = 0
    for count, line in enumerate(lines, 1):
        handle.write(line + "\n")
    return count


def _write_atomically(path: str, write: Callable[[TextIO], _T]) -> _T:
    """Open ``path`` for text with no newline translation, call ``write`` on
    the handle and return what it returns.

    A regular file is written to a temporary file beside it, which is moved
    into place only once ``write`` has returned, so a failure leaves no
    partial file and an existing one as it was.  A symbolic link is
    followed, so the file it names is replaced and the link kept.  A pipe or
    device, such as ``/dev/stdout``, cannot be replaced and is written
    directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            return write(handle)
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(tmp, "x", newline="")  # never clobbers a file of that name
    try:
        with handle:
            result = write(handle)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


def _cmd_atlas_build(args: argparse.Namespace) -> int:
    _check_atlas_cap(args.max_len)
    lines = build_atlas(args.max_len, jones_max_crossings=args.jones_max_crossings)
    count = _write_atomically(args.out, lambda handle: _write_lines(handle, lines))
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_atlas_query(args: argparse.Namespace) -> int:
    filters = [parse_filter(expr) for expr in args.where or []]
    with open(args.atlas) as handle:
        try:
            _emit(query_atlas(handle, filters), args.format, sys.stdout)
        except UnicodeDecodeError as exc:  # raised by the file's own line iterator
            raise ValidationError(
                f"{args.atlas!r} is not {exc.encoding} text: {exc.reason}"
            ) from exc
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzlinks",
        description="Lorenz links: words, braids, T-links, invariants, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    word = sub.add_parser("word", help="word-level operations")
    word_sub = word.add_subparsers(dest="action", required=True)
    info = word_sub.add_parser("info", help="braid and invariants of one word")
    info.add_argument("word")
    add_format(info)
    info.set_defaults(func=_cmd_word_info)

    convert = sub.add_parser("convert", help="convert between parametrizations")
    convert.add_argument("source", help="a word, or a JSON array of [p,q] pairs")
    convert.add_argument("--to", choices=("braid", "tlink", "word"), required=True)
    add_format(convert)
    convert.set_defaults(func=_cmd_convert)

    jones = sub.add_parser("jones", help="Jones polynomial of words or a torus knot")
    jones.add_argument("target", help="comma-separated words, or 'p,q' integers")
    jones.add_argument(
        "--jones-max-crossings", type=int, default=jones_mod.DEFAULT_MAX_CROSSINGS
    )
    add_format(jones)
    jones.set_defaults(func=_cmd_jones)

    modular = sub.add_parser("modular", help="matrix classes and Rademacher values")
    modular.add_argument("action", choices=("encode", "decode", "rademacher"))
    modular.add_argument("value", help="a word, or a JSON matrix for decode")
    add_format(modular)
    modular.set_defaults(func=_cmd_modular)

    flow = sub.add_parser("flow", help="integrate the ODE system")
    flow_sub = flow.add_subparsers(dest="action", required=True)
    itin = flow_sub.add_parser("itinerary", help="LR symbols of a trajectory")
    itin.add_argument("--seed-state", default="1,1,1")
    itin.add_argument("--dt", type=float, default=None)
    itin.add_argument("--steps", type=int, default=40000)
    itin.add_argument("--skip-transient", type=float, default=10.0)
    itin.add_argument("--csv", default=None, help="also dump the trajectory as CSV")
    itin.set_defaults(func=_cmd_flow_itinerary)

    atlas = sub.add_parser("atlas", help="build and query the word census")
    atlas_sub = atlas.add_subparsers(dest="action", required=True)
    build = atlas_sub.add_parser("build", help="write a JSON-lines census")
    build.add_argument("--max-len", type=int, required=True)
    build.add_argument("--jones-max-crossings", type=int, default=0)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_atlas_build)
    query = atlas_sub.add_parser("query", help="stream matching records")
    query.add_argument("atlas")
    query.add_argument(
        "--where", action="append", default=[],
        help="conjunctive filter, e.g. genus=5, c_min<=3, torus=null",
    )
    add_format(query)
    query.set_defaults(func=_cmd_atlas_query)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NonFiniteError, AmbiguousSymbolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
