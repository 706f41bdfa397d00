"""Command-line front end and the census ("atlas") builder.

The atlas is a JSON-lines file, one record per canonical word in
(length, spelling) order, every field recomputable from the word alone.
Records are emitted compactly with a fixed key order, so rebuilding an atlas
with the same arguments is byte-identical.  Words stream from
``words.lyndon_words``, canonical by construction, each straight to its braid
and record, so no word list is held and memory is flat in ``--max-len``.

An atlas record is ``word`` and ``length``, then the invariants under
``invariants.RECORD_KEYS``, then ``jones``.  ``build_atlas`` writes each line
from a template made from those keys, one per trip block count, filled
straight from the tuple ``invariants.record_values`` returns, with no record
dict per word.  A trip block is a non-empty run of L's after an R of the
braid's lobe string, which has the word's letters, so a word of n letters has
at most n // 2 blocks, and templates for 0 to MAX_ATLAS_LEN // 2 blocks cover
every word the builder accepts.  Json's compact encoder writes every json
row, re-encoded, never echoed as read, so an unfiltered json ``atlas query``
reproduces a built atlas byte for byte exactly when the two writers agree: it
checks one against the other.
``atlas query`` decodes each line once, with json's scanner, and re-checks
the record; a line that is not exactly one JSON value is refused with the
message ``json.loads`` gives for it.  The one writer and the one reader are
built once per process, at import, not once per row.

Subcommands: word info, convert, jones, modular {encode, decode, rademacher},
flow itinerary, atlas {build, query}.  Exit codes: 0 success, 2 validation
error, 3 resource cap exceeded, 4 I/O failure.

`main` builds the argument parser on its first call and reuses it on every
later call in the process, so the ``set_defaults(func=...)`` handlers are
bound once, at that first call.  argparse reads ``sys.stdout``,
``sys.stderr`` and the terminal width when it prints, not when it builds,
so a redirected stream is still honoured on every call.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
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
from .errors import ResourceCapError, ValidationError

MAX_ATLAS_LEN = 18
# an atlas record's keys in its key order, the only fields a filter may name
ATLAS_KEYS = ("word", "length", *inv_mod.RECORD_KEYS, "jones")
_parser: argparse.ArgumentParser | None = None  # built by the first `main` call
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
# exit code by refusal; any other error, InternalInconsistencyError too, propagates
_EXIT_CODES = {ValidationError: 2, ResourceCapError: 3, OSError: 4}
# one codec, with json's default settings: it writes every json row and reads
# every atlas line.  Its encoder and scanner are built once per process, here:
# JSONEncoder.encode would build a C encoder for every row and list cell, with
# the arguments passed below, and raw_decode only wraps the scanner.  No row
# refers to itself, so the encoder keeps no circular-reference markers
_decode = json.JSONDecoder().scan_once
_writer = json.JSONEncoder(separators=(",", ":"))
if json.encoder.c_make_encoder is None:  # a Python without _json
    _encode = _writer.encode
else:
    _chunks = json.encoder.c_make_encoder(
        None, _writer.default, json.encoder.encode_basestring_ascii, _writer.indent,
        _writer.key_separator, _writer.item_separator, _writer.sort_keys,
        _writer.skipkeys, _writer.allow_nan,
    )

    def _encode(o: object) -> str:
        return "".join(_chunks(o, 0))


# ---------------------------------------------------------------------------
# atlas records

# An atlas line as _encode would write it, its keys those of ATLAS_KEYS in
# their order.  build_atlas alone fills it; its words are plain L/R text and
# every value an int or, written beforehand as JSON text, a pair or a list of
# pairs, so no field needs json's escaping or its float forms.  Entry k
# writes a trip of k blocks as k pairs of %d fields.  Block p is the run of
# L's after the p-th R and holds at least one L, so a word of n letters has
# k <= min(#L, #R) <= n // 2 and the table covers every word build_atlas
# accepts
_ATLAS_LINES = [
    "{%s}" % ",".join(
        '"%s":%s' % (key, {"word": '"%s"', "trip": trip, "torus": "%s", "jones": "%s"}.get(key, "%d"))
        for key in ATLAS_KEYS
    )
    for trip in ["[%s]" % ",".join(["[%d,%d]"] * k) for k in range(MAX_ATLAS_LEN // 2 + 1)]
]


def build_atlas(max_len: int, jones_max_crossings: int = 0) -> Iterator[str]:
    """JSON lines for every canonical word of length <= max_len, in
    (length, spelling) order, drawn one word at a time.  Raises, when called
    and before any word, ResourceCapError above MAX_ATLAS_LEN and
    ValidationError for a negative Jones crossing cap."""
    if max_len > MAX_ATLAS_LEN:
        raise ResourceCapError(f"max_len {max_len} exceeds the cap of {MAX_ATLAS_LEN}")
    _check_jones_cap(jones_max_crossings)
    return _atlas_lines(max_len, jones_max_crossings)


def _atlas_lines(max_len: int, cap: int) -> Iterator[str]:
    """Each word's line, written straight from its braid's record values,
    with Jones when the braid has at most ``cap`` crossings and cap > 0.  The
    template is the one for the word's number of trip blocks, so the trip's
    pairs are filled as plain ints by the same ``%`` as every other field."""
    for text in words_mod.lyndon_words(max_len):
        braid = braid_mod.braid_of_words([text])
        (components, n, c, trip, ll, lr, rl, rr,
         genus, chi, braid_index, c_min, torus) = inv_mod.record_values(braid)
        jones = "null"
        if cap and c <= cap:
            jones = _json_pairs(jones_mod.jones_of_lorenz_braid(braid, cap).pairs())
        yield _ATLAS_LINES[len(trip)] % (
            text, len(text), components, n, c, *sum(trip, ()), ll, lr, rl, rr,
            genus, chi, braid_index, c_min,
            "null" if torus is None else "[%d,%d]" % torus, jones,
        )


def _json_pairs(pairs: Iterable[tuple[int, int]]) -> str:
    return "[%s]" % ",".join(["[%d,%d]" % pair for pair in pairs])


def _check_jones_cap(cap: int) -> None:
    if cap < 0:
        raise ValidationError(f"--jones-max-crossings must be >= 0, got {cap}")


def verify_record(record: dict) -> None:
    """Consistency relations every atlas record must satisfy on load.  A
    record names one word, so its closure is a knot and every knot relation
    applies."""
    word, n, c = record["word"], record["n"], record["c"]
    if record["components"] != 1:
        raise ValidationError(f"corrupt atlas record {word}: components != 1")
    if not record["length"] == len(word) == n:  # one strand per letter
        raise ValidationError(f"corrupt atlas record {word}: length, |word| and n differ")
    total = 0  # sum p * q, without a generator frame per record
    for p, q in record["trip"]:
        total = total + p * q
    if total != c:
        raise ValidationError(f"corrupt atlas record {word}: sum p * q over trip != c")
    if record["chi"] != n - c:
        raise ValidationError(f"corrupt atlas record {word}: chi != n - c")
    if record["LL"] + record["LR"] + record["RL"] + record["RR"] != n:
        raise ValidationError(f"corrupt atlas record {word}: ear counts != n")
    if record["LR"] != record["RL"]:
        raise ValidationError(f"corrupt atlas record {word}: |LR| != |RL|")
    g, bi, c_min = record["genus"], record["braid_index"], record["c_min"]
    if 2 * g != c - n + 1:
        raise ValidationError(f"corrupt atlas record {word}: 2g != c - n + 1")
    if c_min != 2 * g + bi - 1:
        raise ValidationError(f"corrupt atlas record {word}: c_min relation")
    if record["torus"] is not None:
        p, q = record["torus"]
        if g != (p - 1) * (q - 1) // 2:
            raise ValidationError(f"corrupt atlas record {word}: torus genus")
    if record["jones"] is not None:
        _verify_jones(record)


def _verify_jones(record: dict) -> None:
    """Relations between a knot's published Jones polynomial and the
    invariants beside it: span V <= c (Kauffman-Murasugi-Thistlethwaite),
    V(1) = 1, V(-1) odd, span V <= c_min and, where ``torus`` is [p, q]
    with p, q >= 2, V equal to the closed form of T(p, q).  Pairs (e, a)
    carry quarter exponents, so span V <= c reads max e - min e <= 4c, and
    a knot's exponents are multiples of 4."""
    word, pairs = record["word"], record["jones"]
    exponents = [e for e, _ in pairs]
    span = max(exponents) - min(exponents) if exponents else None
    if span is None or span > 4 * record["c"]:
        raise ValidationError(f"corrupt atlas record {word}: Jones span > c")
    if sum(a for _, a in pairs) != 1:
        raise ValidationError(f"corrupt atlas record {word}: Jones V(1) != 1")
    at_minus_one = sum(-a if e % 8 == 4 else a for e, a in pairs)
    if any(e % 4 for e in exponents) or at_minus_one % 2 == 0:
        raise ValidationError(f"corrupt atlas record {word}: Jones V(-1) is not odd")
    if span > 4 * record["c_min"]:
        raise ValidationError(f"corrupt atlas record {word}: Jones span > c_min")
    torus = record["torus"]
    if torus is not None and min(torus) >= 2:
        p, q = torus
        try:
            expected = [list(pair) for pair in jones_mod.jones_torus(p, q).pairs()]
        except (ValidationError, ResourceCapError):  # T(p, q) is no knot or over the cap
            expected = None
        if pairs != expected:
            raise ValidationError(f"corrupt atlas record {word}: Jones != Jones of T({p}, {q})")


def parse_filter(expression: str) -> tuple[str, str, object]:
    """Parse ``field OP value`` with OP in =, !=, <=, >=, <, >; a value that
    starts with an operator character, as in ``genus==1``, is refused, and
    so is a field outside ``ATLAS_KEYS``, before any atlas is read."""
    for op in _FILTER_OPS:
        if op in expression:
            field, _, raw = expression.partition(op)
            field, raw = field.strip(), raw.strip()
            if not field or not raw or raw[0] in "=<>!":
                raise ValidationError(f"cannot parse filter {expression!r}")
            if field not in ATLAS_KEYS:
                raise ValidationError(f"unknown field {field!r}")
            try:
                return field, op, _parse_filter_value(raw)
            except ValueError as exc:  # an integer beyond the interpreter's digit limit
                raise ValidationError(
                    f"cannot read the value of filter {expression!r}: {exc}"
                ) from exc
    raise ValidationError(f"no comparison operator in {expression!r}")


def _parse_filter_value(raw: str) -> object:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        pass
    else:
        _refuse_unmatchable(value)
        return value
    if "," in raw and all(part.strip().isdigit() for part in raw.split(",")):
        return [int(part) for part in raw.split(",")]
    return raw


def _refuse_unmatchable(value: object) -> None:
    """Refuse, at any depth, a JSON value no atlas field holds that would
    compare as if it matched: true or false (True == 1, so genus=true would
    match genus 1), and NaN or an infinity (NaN equals nothing, so genus!=NaN
    would match every record)."""
    if isinstance(value, bool):
        raise ValueError("no atlas field holds true or false")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("no atlas field holds NaN or an infinity")
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    for item in items:
        _refuse_unmatchable(item)


def record_matches(record: dict, filters: Iterable[tuple[str, str, object]]) -> bool:
    """Whether the record, which has every key of ``ATLAS_KEYS``, passes
    every filter.  Ordering null against anything raises TypeError and is no
    match; any other unorderable pair is a bad filter."""
    for field, op, value in filters:
        actual = record[field]
        try:
            if not _FILTER_OPS[op](actual, value):
                return False
        except TypeError as exc:
            if actual is None or value is None:
                return False
            raise ValidationError(f"cannot order {field!r} against {value!r}") from exc
    return True


def query_atlas(
    lines: Iterable[str], filters: Iterable[tuple[str, str, object]]
) -> Iterator[dict]:
    """Stream records matching every filter, decoding each line once and
    verifying each record on load."""
    filters = list(filters)
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record, end = _decode(line, 0)
            except (ValueError, StopIteration):  # StopIteration: no value at column 1
                end = 0
            if end != len(line):  # a bad line: raise what json.loads says of it
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


def _emit(rows: Iterable[dict], fmt: str) -> None:
    """Write rows as JSON lines, as key-value tables separated by a blank
    line, or as CSV under the first row's header, one sys.stdout write per row."""
    for number, row in enumerate(rows):
        if fmt == "json":
            text = _encode(row) + "\n"
        elif fmt == "table":
            width = max(len(k) for k in row)
            text = "".join(f"{key:<{width}}  {_plain(value)}\n" for key, value in row.items())
            if number:
                text = "\n" + text
        else:
            text = ",".join(_csv_cell(v) for v in row.values()) + "\n"
            if not number:
                text = ",".join(row.keys()) + "\n" + text
        sys.stdout.write(text)


def _plain(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return _encode(value)
    return str(value)


def _csv_cell(value: object) -> str:
    text = _plain(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_word_info(args: argparse.Namespace) -> int:
    braid = braid_mod.braid_of_words([args.word])
    (word,) = braid_mod.words_of_braid(braid)  # the canonical spelling, read off its cycle
    record, keys = inv_mod.compute_record(braid), inv_mod.RECORD_KEYS
    payload = {
        "word": word,
        "length": len(word),
        # the rank of each successive rotation: the braid's cycle through strand 1
        "new_positions": list(braid.cycles[0]),
        "targets": list(braid.targets),
        # a left strand moves right when an R precedes its L, and a right
        # strand moves left when an L follows its R
        "over_strands": braid.lobes.lstrip("L").count("L"),
        "under_strands": braid.lobes.rstrip("R").count("R"),
        # trip and the ear counts, then components, n and c, then the rest
        **{k: record[k] for k in keys[3:8] + keys[:3] + keys[8:]},
    }
    _emit([payload], args.format)
    return 0


def _parse_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer beyond the digit limit
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from exc


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.source.lstrip().startswith("["):
        pairs = _parse_json(args.source, "parameter list")
        braid = tlink_mod.to_lorenz(tlink_mod.TLinkParams.from_pairs(pairs))
    else:  # the typed rotation: words_of_braid prints each word's canonical spelling
        braid = braid_mod.braid_of_words([args.source])
    if args.to == "braid":
        payload = braid.to_json_dict()
    elif args.to == "tlink":
        payload = {"pairs": tlink_mod.from_lorenz(braid).to_json_list()}
    else:  # word
        payload = {"words": braid_mod.words_of_braid(braid)}
    _emit([payload], args.format)
    return 0


def _cmd_jones(args: argparse.Namespace) -> int:
    _check_jones_cap(args.jones_max_crossings)
    tokens = [tok.strip() for tok in args.target.split(",")]
    if all(tok.isdigit() for tok in tokens):
        if len(tokens) != 2:
            raise ValidationError(
                f"a torus knot target is two integers p,q: {args.target!r} gives {len(tokens)}"
            )
        try:
            p, q = (int(tok) for tok in tokens)
        except ValueError as exc:  # an integer beyond the interpreter's digit limit
            raise ValidationError(f"cannot read torus pair {args.target!r}: {exc}") from exc
        poly = jones_mod.jones_torus(p, q)
        source = f"torus({p},{q})"
    else:
        link = words_mod.validate_link(tokens)
        poly = jones_mod.jones_of_lorenz_braid(
            braid_mod.braid_of_words(link), args.jones_max_crossings
        )
        source = ",".join(link)
    payload = {
        "source": source,
        "jones": poly.format(),
        "pairs": [list(pair) for pair in poly.pairs()],
    }
    _emit([payload], args.format)
    return 0


def _cmd_modular(args: argparse.Namespace) -> int:
    if args.action == "encode":
        matrix = mod_mod.matrix_of_word(args.value)
        _emit([{"matrix": matrix.to_rows(), "trace": matrix.trace}], args.format)
    elif args.action == "decode":
        word = mod_mod.word_of_matrix(mod_mod.Mat2Z.from_rows(_parse_json(args.value, "matrix")))
        _emit([{"word": word}], args.format)
    else:  # rademacher
        _emit([mod_mod.rademacher_record(args.value)], args.format)
    return 0


def _cmd_flow_itinerary(args: argparse.Namespace) -> int:
    try:
        x, y, z = (float(part) for part in args.seed_state.split(","))
    except ValueError as exc:
        raise ValidationError(f"seed state must be x,y,z: {args.seed_state!r}") from exc
    trajectory = flow_mod.integrate((x, y, z), dt=args.dt, steps=args.steps)

    def read(handle: TextIO | None = None) -> str:  # one pass, writing rows to a handle
        samples = trajectory if handle is None else _csv_rows(trajectory, handle)
        return flow_mod.itinerary(samples, skip_transient=args.skip_transient)

    print(read() if args.csv is None else _write_atomically(args.csv, read))
    return 0


def _csv_rows(samples: Iterable[tuple], handle: TextIO) -> Iterator[tuple]:
    """Pass (t, x, y, z) ``samples`` through, writing a header and each as a CSV row."""
    handle.write("t,x,y,z\r\n")
    for row in samples:
        handle.write("%r,%r,%r,%r\r\n" % row)
        yield row


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
    directly.  An empty path, or one ending in a separator, names no file
    (``realpath`` would turn either into a file in another directory), so
    it is refused as ``open`` refuses it, before anything is created.
    """
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if path.endswith((os.sep, os.altsep or os.sep)):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            return write(handle)
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        handle = open(tmp, "x", newline="")  # never clobbers a file of that name
    except FileExistsError:  # a stale temporary file, which the message names
        raise
    except OSError as exc:  # the message names the user's path, not the hidden one
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with handle:
            result = write(handle)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


def _cmd_atlas_build(args: argparse.Namespace) -> int:
    lines = build_atlas(args.max_len, jones_max_crossings=args.jones_max_crossings)
    count = _write_atomically(args.out, lambda handle: _write_lines(handle, lines))
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_atlas_query(args: argparse.Namespace) -> int:
    filters = [parse_filter(expr) for expr in args.where or []]
    with open(args.atlas) as handle:
        try:
            _emit(query_atlas(handle, filters), args.format)
        except UnicodeDecodeError as exc:  # raised by the file's own line iterator
            raise ValidationError(
                f"{args.atlas!r} is not {exc.encoding} text: {exc.reason}"
            ) from exc
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line."""
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
    itin.add_argument(
        "--seed-state", default="1,1,1",
        help="start x,y,z; when x < 0 write it with '=', as --seed-state=-1,-1,20",
    )
    itin.add_argument("--dt", type=float, default=flow_mod.DT)
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
        "--where", action="append",
        help="conjunctive filter, e.g. genus=5, c_min<=3, torus=null",
    )
    add_format(query)
    query.set_defaults(func=_cmd_atlas_query)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
