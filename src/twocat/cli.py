"""Command-line surface: validate, reflect, classify, factor, pullback,
edm-cover, gallery, iso.

Documents are JSON files; ``-`` reads stdin.  Exit codes: 0 success,
1 check failure (including law-breaking input that ``reflect``, ``factor``
and ``edm-cover`` cannot build on, and a functor whose ends break a law,
which ``classify`` refuses), 2 malformed input (also text that is
not UTF-8 or JSON nested too deeply to parse), 3 search or budget cap
exceeded.

Each document is checked for well-formedness once, when it is parsed; the
commands then call the private halves of the library's checks, and
``factor`` reads its legs' classes from their certificates.  The argument
parser is built once per process.
"""

import argparse
import functools
import sys

from . import gallery
from .classify import classify, covering_oracle, trivial_covering_oracle
from .core import (
    DEFAULT_CAPS,
    SearchCaps,
    TwoCategory,
    TwoFunctor,
    _graph_violations,
    _law_report,
    _preservation_violations,
    find_isomorphism,
    validate_two_category,
)
from .errors import (
    BudgetExceeded,
    LawViolation,
    MalformedData,
    SearchCapExceeded,
    TwoCatError,
)
from .factorize import _factorization_violations, monotone_light_factor, reflective_factor
from .limits import pullback
from .reflection import reflect
from .serialize import dumps, pairs, parse_document

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_CAP = 3


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedData(f"cannot read {path!r}: {exc}") from exc


def _load_category(path):
    value = parse_document(_read(path))
    if not isinstance(value, TwoCategory):
        raise MalformedData(f"{path!r} does not hold a 2-category document")
    return value


def _load_functor(path):
    value = parse_document(_read(path))
    if not isinstance(value, TwoFunctor):
        raise MalformedData(f"{path!r} does not hold a 2-functor document")
    bad = _preservation_violations(value, *_graph_violations(value, ()))  # ends checked at parse
    if bad:
        raise MalformedData(f"not a 2-functor: {bad[0]}")
    return value


def _caps(args):
    if args.cap is None:
        return DEFAULT_CAPS
    parts = args.cap.split(",")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            return SearchCaps(n, n, n)
        if len(parts) == 3:
            return SearchCaps(int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise MalformedData("--cap wants N or N0,N1,N2")


def cmd_validate(args):
    report = _law_report(_load_category(args.file))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_reflect(args):
    result = reflect(_load_category(args.file))
    fibers = {name: sorted(members) for name, members in result.fibers.items()}
    sys.stdout.write(dumps({"reflected": result.reflected, "fibers": fibers}))
    return EXIT_OK


def cmd_classify(args):
    fun = _load_functor(args.file)
    for end in (fun.source, fun.target):
        failures = _law_report(end).failures
        if failures:
            raise LawViolation(*next(iter(failures.items())))
    report = classify(fun)
    doc = report.as_dict()
    doc["witnesses"] = {k: list(v) for k, v in sorted(report.witnesses.items())}
    if args.oracle:
        oracles = {
            "trivial_covering": trivial_covering_oracle(fun),
            "covering": covering_oracle(fun),
        }
        doc["oracles"] = oracles
        doc["oracles_agree"] = (
            oracles["trivial_covering"] == report.trivial_covering
            and oracles["covering"] == report.covering
        )
    sys.stdout.write(dumps(doc))
    if args.oracle and not doc["oracles_agree"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_factor(args):
    fun = _load_functor(args.file)
    make = reflective_factor if args.system == "reflective" else monotone_light_factor
    fac = make(fun)
    problems = _factorization_violations(fun, fac, certified=True)  # source checked at parse
    doc = {
        "system": fac.system,
        "e": fac.e, "m": fac.m, "middle": fac.middle,
        "certificates": {leg: report.as_dict() for leg, report in fac.certificates.items()},
        "violations": problems,
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK if not problems else EXIT_CHECK_FAILED


def cmd_pullback(args):
    f = _load_functor(args.f)
    g = _load_functor(args.g)
    if f.target == g.target:  # else pullback raises MismatchedTarget
        fibers = g._by_image[2]  # which pullback reads too
        cells = sum(len(fibers.get(f.f2[t], ())) for t in f.source.two_cells)
        if cells > gallery.EDM_COVER_MAX_TWO_CELLS:
            raise BudgetExceeded(
                f"the pullback has {cells} 2-cells, more than {gallery.EDM_COVER_MAX_TWO_CELLS}"
            )
    result = pullback(f, g)
    sys.stdout.write(dumps({"apex": result.apex, "proj1": result.proj1, "proj2": result.proj2}))
    return EXIT_OK if validate_two_category(result.apex).all_pass else EXIT_CHECK_FAILED


def cmd_edm_cover(args):
    base = _load_category(args.file)
    summands = gallery._edm_summands(base, _law_report(base))  # checked at parse
    cover, p = gallery.edm_cover(base, summands)
    doc = {
        "cover": cover, "p": p,
        "summands": {
            "vertical": sum(1 for kind, *_ in summands if kind == "v"),
            "horizontal": sum(1 for kind, *_ in summands if kind == "h"),
        },
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK


def cmd_gallery(args):
    sys.stdout.write(dumps(gallery.by_name(args.name)))
    return EXIT_OK


def cmd_iso(args):
    a = _load_category(args.a)
    b = _load_category(args.b)
    witness = find_isomorphism(a, b, _caps(args))
    if witness is None:
        print("not isomorphic")
        return EXIT_CHECK_FAILED
    sys.stdout.write(dumps({key: pairs(getattr(witness, key)) for key in ("f0", "f1", "f2")}))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twocat",
        description="finite 2-categories: validation, reflection, morphism "
        "classification and factorization",
    )
    parser.add_argument(
        "--cap",
        default=None,
        help="override search caps: N or max_objects,max_one_cells,max_two_cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all 2-category laws")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("reflect", help="collapse parallel 2-cells onto a 2-preorder")
    p.add_argument("file")
    p.set_defaults(run=cmd_reflect)

    p = sub.add_parser("classify", help="evaluate the five morphism-class predicates")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="also run both oracles")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("factor", help="factor a 2-functor")
    p.add_argument("file")
    p.add_argument(
        "--system",
        choices=("reflective", "monotone-light"),
        required=True,
    )
    p.set_defaults(run=cmd_factor)

    p = sub.add_parser("pullback", help="fiber product of two functors over a common target")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(run=cmd_pullback)

    p = sub.add_parser("edm-cover", help="the canonical descent cover of a 2-category")
    p.add_argument("file")
    p.set_defaults(run=cmd_edm_cover)

    p = sub.add_parser("gallery", help="emit a named gallery object")
    p.add_argument("name")
    p.set_defaults(run=cmd_gallery)

    p = sub.add_parser("iso", help="search for an isomorphism between two 2-categories")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(run=cmd_iso)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except TwoCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SearchCapExceeded, BudgetExceeded)):
            return EXIT_CAP
        return EXIT_CHECK_FAILED if isinstance(exc, LawViolation) else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
