"""Acceptance criteria, one test per criterion, each printing a verdict line.

The exhaustive-search corpus for the reflection and stability criteria is
the family of gallery objects small enough to enumerate functors against;
the axiom suite additionally covers the large mixed-chain object and the
seeded random instances.
"""

import json
import time

import pytest

import twocat as tc
from twocat.cli import main
from twocat.serialize import category_to_document, dumps, parse_document, to_document

from conftest import (
    brute_horizontal_triples,
    brute_vertical_triples,
    descent_probe_setup,
    pick_functor,
    seeded_functor,
)


def verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def small_corpus(gallery_objects):
    objects = {
        name: gallery_objects[name]
        for name in ("terminal", "T0", "T", "T2", "T3", "T4", "v4", "h4")
    }
    objects["rand2"] = tc.random_instance(2)
    objects["rand5"] = tc.random_instance(5)
    return objects


def test_criterion_1_axiom_suite(gallery_objects):
    started = time.monotonic()
    ok = True
    names = ("T", "T0", "T2", "T3", "T4", "v4", "h4", "vh4", "terminal")
    for name in names:
        ok = ok and tc.validate_two_category(gallery_objects[name]).all_pass
    for seed in range(20):
        ok = ok and tc.validate_two_category(tc.random_instance(seed)).all_pass
    broken = tc.make_h4_na()
    report = tc.validate_two_category(broken)
    ok = ok and set(report.failures) == {"h-assoc"}
    ok = ok and report.counterexample("h-assoc") == ("a23", "a12", "a01")
    left = broken.horiz_compose[(broken.horiz_compose[("a23", "a12")], "a01")]
    right = broken.horiz_compose[("a23", broken.horiz_compose[("a12", "a01")])]
    ok = ok and left == "a03x" and right == "a03" and left != right
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    verdict(1, f"axiom suite, {elapsed:.1f}s", ok)


def test_criterion_2_oracle_equivalence(corpus_functors):
    started = time.monotonic()
    agreed = 0
    for fun in corpus_functors:
        if tc.is_trivial_covering(fun) != tc.trivial_covering_oracle(fun):
            verdict(2, "oracle equivalence (trivial covering)", False)
        if tc.is_covering(fun) != tc.covering_oracle(fun):
            verdict(2, "oracle equivalence (covering)", False)
        agreed += 1
    elapsed = time.monotonic() - started
    ok = agreed == len(corpus_functors) == 128 and elapsed < 60.0
    verdict(2, f"oracle equivalence on {agreed} functors, {elapsed:.1f}s", ok)


def test_criterion_3_factorization_suite(corpus_functors, seeded_functors):
    ok = True
    for fun in list(corpus_functors) + list(seeded_functors):
        light = tc.monotone_light_factor(fun)
        ok = ok and tc.functors_equal(
            tc.compose_two_functors(light.m, light.e), fun
        )
        ok = ok and tc.is_stably_vertical(light.e) and tc.is_covering(light.m)
        ok = ok and tc.verify_factorization(fun, light) == []
        reflective = tc.reflective_factor(fun)
        ok = ok and tc.functors_equal(
            tc.compose_two_functors(reflective.m, reflective.e), fun
        )
        ok = ok and tc.is_vertical(reflective.e)
        ok = ok and tc.is_trivial_covering(reflective.m)
        ok = ok and tc.verify_factorization(fun, reflective) == []
    verdict(3, f"factorizations of {len(corpus_functors) + 20} functors", ok)


def test_criterion_4_nontriviality(t_family):
    fun = pick_functor(t_family[1], t_family[2], t1="t1")
    report = tc.classify(fun)
    ok = report.vertical and not report.stably_vertical
    reflective = tc.reflective_factor(fun)
    light = tc.monotone_light_factor(fun)
    ok = ok and tc.find_isomorphism(reflective.middle, light.middle) is None
    verdict(4, "nontriviality witness", ok)


def test_criterion_5_reflection_laws(small_corpus):
    ok = True
    for cat in small_corpus.values():
        result = tc.reflect(cat)
        ok = ok and tc.is_two_preorder(result.reflected)
        ok = ok and tc.in_class_E(tc.underlying_graph_morphism(result.unit))
        twice = tc.reflect(result.reflected)
        ok = ok and tc.functors_equal(
            twice.unit, tc.identity_two_functor(result.reflected)
        )
    # universal property by exhaustive search, sources vs 2-preorder targets
    searchable = ("terminal", "T0", "T", "T2", "T3", "v4", "rand2", "rand5")
    targets = [
        cat for name, cat in small_corpus.items()
        if name in searchable and tc.is_two_preorder(cat)
    ]
    checked = 0
    for name in searchable:
        src = small_corpus[name]
        result = tc.reflect(src)
        for tgt in targets:
            for fun in tc.enumerate_two_functors(src, tgt):
                through = [
                    g
                    for g in tc.enumerate_two_functors(result.reflected, tgt)
                    if tc.functors_equal(tc.compose_two_functors(g, result.unit), fun)
                ]
                ok = ok and len(through) == 1
                checked += 1
    verdict(5, f"reflection laws, {checked} factorizations", ok and checked > 300)


def test_criterion_6_semi_left_exactness_and_stable_units(small_corpus):
    ok = True
    for cat in small_corpus.values():
        ok = ok and tc.check_semi_left_exact(cat)
    pair_names = ("terminal", "T0", "T", "T2", "T3", "v4", "rand2")
    for a in pair_names:
        for b in pair_names:
            if len(small_corpus[a].objects) > 6 or len(small_corpus[b].objects) > 6:
                continue
            ok = ok and tc.check_stable_units(small_corpus[a], small_corpus[b])
    # the paired components of the doubled and tripled cells multiply: the
    # identity-shaped probes meet in a six-cell fiber collapsing to one
    T = tc.make_T()
    iden = {u: u for u in T.one_cells}
    mu = next(
        f
        for f in tc.enumerate_two_functors(T, tc.reflect(small_corpus["T2"]).reflected)
        if f.f1 == iden
    )
    nu = next(
        f
        for f in tc.enumerate_two_functors(T, tc.reflect(small_corpus["T3"]).reflected)
        if f.f1 == iden
    )
    c_mu = tc.connected_component(small_corpus["T2"], mu)
    d_nu = tc.connected_component(small_corpus["T3"], nu)
    mixed = tc.pullback(c_mu.proj2, d_nu.proj2).apex
    fibers = tc.reflect(mixed).fibers
    ok = ok and max(len(v) for v in fibers.values()) == 6
    ok = ok and tc.is_isomorphic(tc.reflect(mixed).reflected, T)
    verdict(6, "semi-left-exactness and stable units", ok)


def test_criterion_7_descent_suite(t_family):
    ok = True
    # independent brute-force confirmation before trusting the enumerators
    T = t_family[1]
    ok = ok and len(brute_vertical_triples(T)) == 7
    ok = ok and len(brute_horizontal_triples(T)) == 11
    summands = tc.edm_summands(T)
    ok = ok and sum(1 for k, *_ in summands if k == "v") == 7
    ok = ok and sum(1 for k, *_ in summands if k == "h") == 11

    for base in (t_family[1], t_family[2], tc.make_v4()):
        cover, p = tc.edm_cover(base)
        ok = ok and tc.is_two_preorder(cover)
        ok = ok and tc.validate_two_functor(p) == []
        ok = ok and tc.is_edm(p)

    # pullbacks of corpus objects along the cover stay 2-categories
    _, p = tc.edm_cover(T)
    for source in (t_family[0], t_family[2], t_family[3]):
        for probe in list(tc.enumerate_two_functors(source, T))[:5]:
            ok = ok and tc.validate_two_category(tc.pullback(probe, p).apex).all_pass

    # the relaxed pullback of the non-associative probe along a cover that
    # misses the broken triples is a genuine 2-category
    h4na, _, phi, _, cover_p, dropped = descent_probe_setup()
    ok = ok and not tc.validate_two_category(h4na).passed("h-assoc")
    ok = ok and not tc.is_edm(cover_p)
    result = tc.pullback(phi, cover_p)
    ok = ok and tc.validate_two_category(result.apex).all_pass
    verdict(7, f"descent suite ({dropped} summands withheld)", ok)


def test_criterion_8_orthogonality(functor_corpus, corpus_functors):
    def index(cat):
        return len(cat.two_cells) - 4

    def unique_fill_ins(left_members, right_members):
        squares = 0
        for e in left_members:
            for m in right_members:
                u_pool = functor_corpus[(index(e.source), index(m.source))]
                v_pool = functor_corpus[(index(e.target), index(m.target))]
                d_pool = functor_corpus[(index(e.target), index(m.source))]
                for u in u_pool:
                    mu = tc.compose_two_functors(m, u)
                    for v in v_pool:
                        if not tc.functors_equal(mu, tc.compose_two_functors(v, e)):
                            continue
                        squares += 1
                        fills = [
                            w
                            for w in d_pool
                            if tc.functors_equal(tc.compose_two_functors(w, e), u)
                            and tc.functors_equal(tc.compose_two_functors(m, w), v)
                        ]
                        if len(fills) != 1:
                            return squares, False
        return squares, True

    stably = [f for f in corpus_functors if tc.is_stably_vertical(f)]
    coverings = [f for f in corpus_functors if tc.is_covering(f)]
    light_squares, light_ok = unique_fill_ins(stably, coverings)

    verticals = [f for f in corpus_functors if tc.is_vertical(f)]
    trivials = [f for f in corpus_functors if tc.is_trivial_covering(f)]
    reflective_squares, reflective_ok = unique_fill_ins(verticals, trivials)

    ok = light_ok and reflective_ok and light_squares > 100 and reflective_squares > 100
    verdict(
        8,
        f"orthogonality on {light_squares}+{reflective_squares} squares",
        ok,
    )


def test_criterion_9_cli(tmp_path, capsys):
    from twocat.gallery import by_name

    ok = True
    for name in ("T", "T0", "T3", "v4", "h4", "vh4", "h4na", "terminal"):
        cat = by_name(name)
        text = dumps(category_to_document(cat))
        ok = ok and parse_document(text) == cat
        ok = ok and dumps(to_document(parse_document(text))) == text

    def run(argv, payload=None):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    t_path = tmp_path / "T.json"
    code, out = run(["gallery", "T"])
    ok = ok and code == 0
    t_path.write_text(out, encoding="utf-8")

    code, _ = run(["validate", str(t_path)])
    ok = ok and code == 0

    na_path = tmp_path / "na.json"
    code, out = run(["gallery", "h4na"])
    na_path.write_text(out, encoding="utf-8")
    code, out = run(["validate", str(na_path)])
    ok = ok and code == 1 and "a23, a12, a01" in out

    code, out = run(["edm-cover", str(t_path)])
    ok = ok and code == 0
    counts = json.loads(out)["summands"]
    ok = ok and counts == {"vertical": 7, "horizontal": 11}

    bad_path = tmp_path / "bad.json"
    bad_path.write_text('{"objects": ["x"], "one_cells": [{"id": "u", "dom": "x", "cod": "y"}]}')
    code, _ = run(["validate", str(bad_path)])
    ok = ok and code == 2

    code, _ = run(["--cap", "1", "iso", str(t_path), str(t_path)])
    ok = ok and code == 3

    code, _ = run(["iso", str(t_path), str(t_path)])
    ok = ok and code == 0

    two_path = tmp_path / "T2.json"
    code, out = run(["gallery", "T2"])
    two_path.write_text(out, encoding="utf-8")
    code, _ = run(["iso", str(t_path), str(two_path)])
    ok = ok and code == 1

    print()
    verdict(9, "CLI round-trips and exit codes", ok)
