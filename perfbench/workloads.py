"""The four workloads: their seeded inputs, job lists and correctness checks.

A workload's ``setup(tc, seed, workdir)`` builds every input with the twocat
package ``tc`` (the part timed as ``setup_s``) and returns a
:class:`Workload` whose jobs are then run, each one a top-level library call
or one ``cli.main`` invocation.  Why each workload exists is written down
in README.md next to this file.
"""

import io
import json
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from inputs import (
    FUNCTOR_KINDS,
    pool_instance,
    relabel,
    rng_for,
    seeded_functor,
    sizes,
)


def maps(fun):
    """A functor's three carrier maps, without its (input) ends."""
    return [fun.f0, fun.f1, fun.f2]


def _no_problems(_output):
    return []


def _same(output):
    return output


@dataclass
class Job:
    """One timed request.

    ``run`` does the work that is timed; ``check`` returns the problems it
    finds in the output (empty when correct); ``record`` picks the part of
    the output that is hashed into the job's digest.  ``span`` names the
    job's own span in a traced run.
    """

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list] = _no_problems
    record: Callable[[Any], Any] = _same
    span: str = "job"


@dataclass
class Workload:
    jobs: list
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# corpus: the predicate-versus-oracle cross-check at scale
# ---------------------------------------------------------------------------

#: Seeded functors in the corpus, on top of the 128 functors between T0..T3.
CORPUS_SEEDED = 300


def _corpus_job(tc, fun):
    def run():
        report = tc.classify(fun)
        oracles = (tc.trivial_covering_oracle(fun), tc.covering_oracle(fun))
        factors = []
        for factor in (tc.reflective_factor, tc.monotone_light_factor):
            fac = factor(fun)
            factors.append((fac, tc.verify_factorization(fun, fac)))
        return report, oracles, factors

    def check(output):
        report, (trivial, covering), factors = output
        problems = []
        if trivial != report.trivial_covering:
            problems.append("trivial-covering oracle disagrees with the predicate")
        if covering != report.covering:
            problems.append("covering oracle disagrees with the predicate")
        for fac, violations in factors:
            problems.extend(f"{fac.system}: {v}" for v in violations)
        return problems

    return run, check


def corpus(tc, seed, workdir):
    family = [tc.make_Tn(n) for n in range(4)]
    functors = []
    for m, src in enumerate(family):
        for n, dst in enumerate(family):
            for i, fun in enumerate(tc.enumerate_two_functors(src, dst)):
                functors.append((f"T{m}-T{n}.{i}", fun))
    rng = rng_for(seed, "corpus")
    for i in range(CORPUS_SEEDED):
        # kinds and blocks cycle, so that only the bases vary with the seed
        kind = FUNCTOR_KINDS[i % len(FUNCTOR_KINDS)]
        block = i // len(FUNCTOR_KINDS) % 3
        base = pool_instance(tc, i, rng)
        functors.append((f"seeded.{i}.{kind}", seeded_functor(tc, kind, block, base)))
    jobs = []
    inputs = {}
    for name, fun in functors:
        run, check = _corpus_job(tc, fun)
        jobs.append(Job(id=name, run=run, check=check))
        inputs[name] = [sizes(fun.source), sizes(fun.target)]
    return Workload(jobs=jobs, inputs=inputs)


# ---------------------------------------------------------------------------
# cli: every subcommand through twocat.cli.main on documents on disk
# ---------------------------------------------------------------------------

#: Gallery objects whose relabeled descent covers feed the cli workload.
CLI_BASES = ("T", "T3", "v4")


def _validate_output(text):
    return [line for line in text.splitlines() if not line.endswith(": pass")]


def _cli_checks(tc, command, paths):
    """Problems in the stdout of a successful ``command``, by subcommand."""
    def classify(text):
        return [] if json.loads(text)["oracles_agree"] else ["oracles disagree"]

    def factor(text):
        return json.loads(text)["violations"]

    def iso(text):
        doc = json.loads(text)
        a = tc.serialize.parse_document(_read(paths[0]))
        b = tc.serialize.parse_document(_read(paths[1]))
        witness = tc.TwoFunctor(
            source=a, target=b,
            f0=dict(doc["f0"]), f1=dict(doc["f1"]), f2=dict(doc["f2"]),
        )
        return tc.validate_two_functor(witness)

    def parses(text):
        json.loads(text)
        return []

    return {
        "validate": _validate_output,
        "classify": classify,
        "factor": factor,
        "iso": iso,
    }.get(command, parses)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class _ThreadStreams(io.TextIOBase):
    """Stands in for ``sys.stdout`` or ``sys.stderr``: writes go to the stream
    the writing thread captures into, else to the stream it replaced.

    The runner runs a program job and a reference job at the same time in two
    threads, so each ``cli.main`` call captures its own output.
    """

    _lock = threading.Lock()

    def __init__(self, replaced):
        super().__init__()
        self.replaced = replaced
        self.local = threading.local()

    def write(self, text):
        return getattr(self.local, "stream", self.replaced).write(text)

    def flush(self):
        getattr(self.local, "stream", self.replaced).flush()

    @classmethod
    def install(cls):
        with cls._lock:
            for name in ("stdout", "stderr"):
                if not isinstance(getattr(sys, name), cls):
                    setattr(sys, name, cls(getattr(sys, name)))


@contextmanager
def _captured():
    """This thread's writes to stdout and stderr, into a fresh buffer each."""
    _ThreadStreams.install()
    buffers = io.StringIO(), io.StringIO()
    sys.stdout.local.stream, sys.stderr.local.stream = buffers
    try:
        yield buffers
    finally:
        del sys.stdout.local.stream, sys.stderr.local.stream


def _cli_job(tc, job_id, argv, expect, files=()):
    command = argv[0]

    def run():
        with _captured() as (out, _err):
            code = tc.cli.main(list(argv))
        return code, out.getvalue()

    def check(output):
        code, text = output
        if code != expect:
            return [f"exit code {code}, expected {expect}"]
        if expect != 0:
            return []
        return _cli_checks(tc, command, files)(text)

    return Job(id=job_id, run=run, check=check, span=f"cli.{command}")


def _write(tc, workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tc.serialize.dumps(doc))
    return path


def cli(tc, seed, workdir):
    rng = rng_for(seed, "cli")
    jobs = []
    inputs = {}
    bases = {}
    for name in CLI_BASES:
        base, _ = relabel(tc, tc.gallery.by_name(name), rng)
        other, _ = relabel(tc, base, rng)
        cover, p = tc.edm_cover(base)
        ser = tc.serialize
        docs = {
            "base": ser.category_to_document(base),
            "relabeled": ser.category_to_document(other),
            "cover": ser.category_to_document(cover),
            "p": ser.functor_to_document(p),
            "id": ser.functor_to_document(tc.identity_two_functor(base)),
        }
        path = {key: _write(tc, workdir, f"{name}-{key}.json", doc) for key, doc in docs.items()}
        bases[name] = path["base"]
        inputs[name] = sizes(base)
        inputs[f"{name}-cover"] = sizes(cover)
        for argv in (
            ("gallery", name),
            ("edm-cover", "base"),
            ("validate", "cover"),
            ("reflect", "cover"),
            ("classify", "--oracle", "p"),
            ("factor", "--system=monotone-light", "p"),
            ("factor", "--system=reflective", "p"),
            ("pullback", "p", "id"),
            ("iso", "base", "relabeled"),
        ):
            jobs.append(_cli_job(
                tc, f"{name}: {' '.join(argv)}",
                [path.get(a, a) for a in argv],
                0,
                (path["base"], path["relabeled"]),
            ))
    # the failing exit paths: a broken law, and carriers of different sizes
    h4na = tc.make_h4_na()
    inputs["h4na"] = sizes(h4na)
    broken = _write(tc, workdir, "h4na.json", tc.serialize.category_to_document(h4na))
    jobs.append(_cli_job(tc, "h4na: validate", ["validate", broken], 1))
    jobs.append(_cli_job(tc, "T/T3: iso", ["iso", bases["T"], bases["T3"]], 1))
    return Workload(jobs=jobs, inputs=inputs)


# ---------------------------------------------------------------------------
# limits: the 10^4-10^5 rungs through the library
# ---------------------------------------------------------------------------

def limits(tc, seed, workdir):
    rng = rng_for(seed, "limits")
    t_base, _ = relabel(tc, tc.make_T(), rng)
    h4_base, _ = relabel(tc, tc.make_h4(), rng)
    vh4, _ = relabel(tc, tc.make_vh4(), rng)
    t2, _ = relabel(tc, tc.make_Tn(2), rng)
    t_cover, p = tc.edm_cover(t_base)
    h4_cover, _ = tc.edm_cover(h4_base)
    held = {}

    def self_pullback():
        held["square"] = tc.pullback(p, p)
        return held["square"]

    def reflect_apex():
        return tc.reflect(held.pop("square").apex)

    def product_validated():
        apex = tc.product(vh4, t2).apex
        return apex, tc.validate_two_category(apex)

    def validate_cover():
        return tc.validate_two_category(h4_cover)

    def expect_sizes(cat, want):
        got = sizes(cat)
        return [] if got == want else [f"carrier sizes {got}, expected {want}"]

    def check_square(square):
        problems = expect_sizes(square.apex, [1682, 26932, 116610])
        for proj in (square.proj1, square.proj2):
            if proj.target != t_cover:
                problems.append("a projection does not end at the cover")
        return problems

    def check_reflection(result):
        problems = []
        if not tc.is_two_preorder(result.reflected):
            problems.append("the reflection is not a 2-preorder")
        if sum(len(m) for m in result.fibers.values()) != 116610:
            problems.append("the collapse fibers do not partition the 2-cells")
        return problems

    def check_product(output):
        apex, report = output
        return expect_sizes(apex, [8, 448, 7404]) + check_laws(report)

    def check_laws(report):
        return [] if report.all_pass else [f"laws fail: {sorted(report.failures)}"]

    def pullback_record(square):
        return [square.apex, maps(square.proj1), maps(square.proj2)]

    def reflection_record(result):
        return [result.reflected, maps(result.unit), result.fibers]

    jobs = [
        Job("pullback(p, p) of the T-cover projection", self_pullback, check_square,
            pullback_record),
        Job("reflect the self-pullback apex", reflect_apex, check_reflection,
            reflection_record),
        Job("product(vh4, T2), validate", product_validated, check_product),
        Job("validate edm_cover(h4)", validate_cover, check_laws),
    ]
    inputs = {
        "T": sizes(t_base),
        "T-cover": sizes(t_cover),
        "h4-cover": sizes(h4_cover),
        "vh4": sizes(vh4),
        "T2": sizes(t2),
    }
    return Workload(jobs=jobs, inputs=inputs)


# ---------------------------------------------------------------------------
# probes: the search-heavy paper claims
# ---------------------------------------------------------------------------

#: Seeded random instances checked for semi-left-exactness.
PROBE_SLE = 60
#: Seeded pairs of random instances checked for stable units.
PROBE_PAIRS = 100
#: Seeded isomorphism searches against a relabeled copy.
PROBE_ISO = 100
#: Instance budget of the stable-units pairs and the isomorphism jobs; see
#: README.md for why it is below random_instance's default.
SMALL_BUDGET = (4, 16, 32)

GALLERY_SLE = ("terminal", "T", "T2", "T3", "v4", "h4")
GALLERY_ISO = ("T", "T3", "v4")


def _expect_true(label):
    def check(output):
        return [] if output is True else [f"{label} returned {output!r}"]
    return check


def _iso_check(tc, source, target):
    def check(witness):
        if witness is None:
            return ["no isomorphism onto a relabeled copy"]
        if witness.source is not source or witness.target is not target:
            return ["the witness has the wrong ends"]
        problems = tc.validate_two_functor(witness)
        for got, carrier in ((witness.f0, target.objects),
                             (witness.f1, target.one_cells),
                             (witness.f2, target.two_cells)):
            if set(got.values()) != set(carrier) or len(got) != len(carrier):
                problems.append("the witness is not a levelwise bijection")
        return problems
    return check


def probes(tc, seed, workdir):
    rng = rng_for(seed, "probes")
    gallery = {name: tc.gallery.by_name(name) for name in GALLERY_SLE}
    inputs = {}
    jobs = []

    def sle_job(label, cat):
        inputs[label] = sizes(cat)
        jobs.append(Job(f"semi-left-exact {label}",
                        lambda: tc.check_semi_left_exact(cat),
                        _expect_true("check_semi_left_exact")))

    def stable_job(label, a, b):
        jobs.append(Job(f"stable units {label}",
                        lambda: tc.check_stable_units(a, b),
                        _expect_true("check_stable_units")))

    def iso_job(label, cat):
        copy, _ = relabel(tc, cat, rng)
        inputs[label] = sizes(cat)
        jobs.append(Job(f"iso {label}", lambda: tc.find_isomorphism(cat, copy),
                        _iso_check(tc, cat, copy), maps))

    for name in GALLERY_SLE:
        sle_job(name, gallery[name])
    for i in range(PROBE_SLE):
        sle_job(f"sle.{i}", pool_instance(tc, 1000 + i, rng))
    stable_job("h4/h4", gallery["h4"], gallery["h4"])
    for i in range(PROBE_PAIRS):
        a = pool_instance(tc, 2000 + 2 * i, rng, SMALL_BUDGET)
        b = pool_instance(tc, 2001 + 2 * i, rng, SMALL_BUDGET)
        inputs[f"pair.{i}"] = [sizes(a), sizes(b)]
        stable_job(f"pair.{i}", a, b)
    for name in GALLERY_ISO:
        iso_job(f"{name} relabeled", gallery[name])
    for i in range(PROBE_ISO):
        iso_job(f"iso.{i}", pool_instance(tc, 3000 + i, rng, SMALL_BUDGET))
    return Workload(jobs=jobs, inputs=inputs)


WORKLOADS = {"corpus": corpus, "cli": cli, "limits": limits, "probes": probes}
