"""Parity: PARIS on the prepared kernels scores exactly like the naive loop.

``ParisAligner`` takes its τ-evidence from ``similarity_matrix_prepared``
and the θ-agnostic attribute-pair memo it shares with the space build. The
oracle below is the naive evidence loop it replaced: every value pair
scored with ``object_similarity``. Scored links and the relation alignment
must be bit-identical (compared as ``float.hex``) whatever state the memo
is in: cold, warm from a θ=0.3 space build, disabled, or warm from a build
at a θ above the evidence τ (so every below-θ entry must be recomputed).
"""

import pytest

from repro import obs
from repro.datasets.catalog import load_pair
from repro.features import FeatureSpace
from repro.links import Link
from repro.paris import ParisAligner
from repro.rdf import turtle
from repro.similarity.generic import object_similarity
from repro.similarity.prepared import clear_caches, configure_score_cache

BUILD_THETA = 0.3


class NaiveParis(ParisAligner):
    """The oracle: scores every attribute-value pair with the naive kernel."""

    def _collect_evidence(self, candidates):
        evidence = {}
        for left_entity, right_entity in candidates:
            matches = []
            for r1, objects1 in left_entity.attributes.items():
                for r2, objects2 in right_entity.attributes.items():
                    best = 0.0
                    for o1 in objects1:
                        for o2 in objects2:
                            score = object_similarity(o1, o2)
                            if score > best:
                                best = score
                    if best >= self.evidence_tau:
                        matches.append((r1, r2, best))
            if matches:
                evidence[Link(left_entity.uri, right_entity.uri)] = matches
        return evidence


SYNTHETIC_LEFT = """
@prefix r: <http://a/res/> .
@prefix o: <http://a/ont/> .
@prefix x: <http://www.w3.org/2001/XMLSchema#> .
r:lebron o:name "LeBron James", "King James" ; o:born "1984"^^x:integer ;
    o:team r:Cleveland_Cavaliers ; o:active "true"^^x:boolean ;
    o:debut "2003-10-29"^^x:date .
r:durant o:name "Kevin Durant" ; o:born "1988"^^x:integer ;
    o:team r:Phoenix_Suns ; o:active "true"^^x:boolean ; o:height "2.08"^^x:decimal .
r:curry o:name "Stephen Curry" ; o:born "1988"^^x:integer ;
    o:team r:Golden_State_Warriors ; o:debut "2009-10-28"^^x:date .
r:james o:name "James Harden" ; o:born "1989"^^x:integer ; o:team r:Phoenix_Suns .
"""

SYNTHETIC_RIGHT = """
@prefix r: <http://b/res/> .
@prefix o: <http://b/ont/> .
@prefix x: <http://www.w3.org/2001/XMLSchema#> .
r:lj o:label "Lebron James" ; o:birthYear "1984"^^x:integer ;
    o:club "Cleveland Cavaliers" ; o:playing "true"^^x:boolean ;
    o:firstGame "2003-10-30"^^x:date .
r:kd o:label "Kevin Durant", "KD" ; o:birthYear "1988"^^x:integer ;
    o:club r:PhoenixSuns ; o:height "2.11"^^x:decimal .
r:sc o:label "Steph Curry" ; o:birthYear "1988"^^x:integer ;
    o:club "Golden State Warriors" ; o:firstGame "2009-10-28"^^x:date .
r:jh o:label "Harden, James" ; o:birthYear "1989"^^x:integer ; o:club r:PhoenixSuns .
"""


@pytest.fixture(scope="module", params=["synthetic", "dbpedia_nba_nytimes"])
def graphs(request):
    if request.param == "synthetic":
        return request.param, turtle.load(SYNTHETIC_LEFT), turtle.load(SYNTHETIC_RIGHT)
    pair = load_pair(request.param)
    return request.param, pair.left, pair.right


def _result(aligner, mutual_best):
    scored = aligner.run(mutual_best=mutual_best)
    links = sorted(
        (link.left.value, link.right.value, scored.score(link).hex()) for link in scored
    )
    alignment = sorted(
        (r1.value, r2.value, value.hex())
        for (r1, r2), value in aligner.relation_alignment().items()
    )
    return links, alignment


_oracle_results: dict = {}


def _oracle(name, left, right, tau, mutual_best):
    key = (name, tau, mutual_best)
    if key not in _oracle_results:
        _oracle_results[key] = _result(NaiveParis(left, right, evidence_tau=tau), mutual_best)
    return _oracle_results[key]


def _attribute_counts(snapshot):
    """PARIS's flushed similarity.cache.{hits,misses}{layer="attribute"}."""
    counts = {"hits": 0, "misses": 0}
    for entry in snapshot["counters"]:
        for kind in counts:
            if entry["name"] == f"similarity.cache.{kind}" and entry["labels"] == {
                "layer": "attribute"
            }:
                counts[kind] += entry["value"]
    return counts


@pytest.mark.parametrize("mutual_best", [True, False])
@pytest.mark.parametrize("memo", ["cold", "warm", "disabled", "tau-below-theta"])
def test_prepared_paris_matches_naive_oracle(graphs, memo, mutual_best):
    name, left, right = graphs
    tau = 0.2 if memo == "tau-below-theta" else 0.8
    clear_caches()
    if memo == "disabled":
        configure_score_cache(0)
    try:
        if memo in ("warm", "tau-below-theta"):
            FeatureSpace.build(left, right, BUILD_THETA)
        with obs.use_registry() as registry:
            got = _result(ParisAligner(left, right, evidence_tau=tau), mutual_best)
    finally:
        configure_score_cache(1 << 18)
        clear_caches()
    assert got == _oracle(name, left, right, tau, mutual_best)
    assert got[0]  # the comparison covered real scored links
    snapshot = registry.snapshot()
    assert {"paris.evidence", "paris.iterate"} <= {h["name"] for h in snapshot["histograms"]}
    counts = _attribute_counts(snapshot)
    if memo == "warm":
        # τ=0.8 ≥ θ=0.3: the build's memo answers every evidence query
        assert counts["misses"] == 0 and counts["hits"] > 0
    elif memo == "tau-below-theta":
        # entries the build left "below 0.3" say nothing about ≥ 0.2
        assert counts["misses"] > 0
