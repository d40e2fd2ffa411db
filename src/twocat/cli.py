"""Command-line surface: validate, reflect, classify, factor, pullback,
edm-cover, gallery, iso.

Documents are JSON files; ``-`` reads stdin.  Exit codes: 0 success,
1 check failure (including law-breaking input that ``reflect``, ``factor``
and ``edm-cover`` cannot build on), 2 malformed input, 3 search or budget
cap exceeded.
"""

import argparse
import sys

from . import gallery
from .classify import classify, covering_oracle, trivial_covering_oracle
from .core import (
    DEFAULT_CAPS,
    SearchCaps,
    TwoCategory,
    TwoFunctor,
    find_isomorphism,
    validate_two_category,
    validate_two_functor,
)
from .errors import (
    BudgetExceeded,
    LawViolation,
    MalformedData,
    SearchCapExceeded,
    TwoCatError,
)
from .factorize import monotone_light_factor, reflective_factor, verify_factorization
from .limits import pullback
from .reflection import reflect
from .serialize import (
    category_to_document,
    dumps,
    functor_to_document,
    parse_document,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_CAP = 3


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
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
    bad = validate_two_functor(value)
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
    report = validate_two_category(_load_category(args.file))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_reflect(args):
    result = reflect(_load_category(args.file))
    doc = {
        "reflected": category_to_document(result.reflected),
        "fibers": {name: sorted(members) for name, members in result.fibers.items()},
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK


def cmd_classify(args):
    fun = _load_functor(args.file)
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
    problems = verify_factorization(fun, fac)
    doc = {
        "system": fac.system,
        "e": functor_to_document(fac.e),
        "m": functor_to_document(fac.m),
        "middle": category_to_document(fac.middle),
        "certificates": {
            "e": fac.certificates["e"].as_dict(),
            "m": fac.certificates["m"].as_dict(),
        },
        "violations": problems,
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK if not problems else EXIT_CHECK_FAILED


def cmd_pullback(args):
    f = _load_functor(args.f)
    g = _load_functor(args.g)
    result = pullback(f, g)
    doc = {
        "apex": category_to_document(result.apex),
        "proj1": functor_to_document(result.proj1),
        "proj2": functor_to_document(result.proj2),
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK if validate_two_category(result.apex).all_pass else EXIT_CHECK_FAILED


def cmd_edm_cover(args):
    base = _load_category(args.file)
    summands = gallery.edm_summands(base)
    cover, p = gallery.edm_cover(base, summands)
    doc = {
        "cover": category_to_document(cover),
        "p": functor_to_document(p),
        "summands": {
            "vertical": sum(1 for kind, *_ in summands if kind == "v"),
            "horizontal": sum(1 for kind, *_ in summands if kind == "h"),
        },
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK


def cmd_gallery(args):
    sys.stdout.write(dumps(category_to_document(gallery.by_name(args.name))))
    return EXIT_OK


def cmd_iso(args):
    a = _load_category(args.a)
    b = _load_category(args.b)
    witness = find_isomorphism(a, b, _caps(args))
    if witness is None:
        print("not isomorphic")
        return EXIT_CHECK_FAILED
    doc = {
        "f0": sorted([k, v] for k, v in witness.f0.items()),
        "f1": sorted([k, v] for k, v in witness.f1.items()),
        "f2": sorted([k, v] for k, v in witness.f2.items()),
    }
    sys.stdout.write(dumps(doc))
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (SearchCapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except LawViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (MalformedData, TwoCatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
