"""Links between entities of two datasets, and sets thereof.

A :class:`Link` is a (left, right) pair of entity URIs asserted to denote the
same individual (``owl:sameAs``). :class:`LinkSet` is the mutable collection
ALEX operates on: the *candidate links*. It supports lookup from either side
(needed by federation for sameAs rewriting), carries optional scores (from
the automatic linker), and tracks additions/removals between snapshots so the
engine can measure convergence ("set of candidate links did not change").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple

from repro.rdf.graph import Graph
from repro.rdf.namespaces import OWL_SAMEAS
from repro.rdf.terms import URIRef
from repro.rdf.triples import Triple


class Link(NamedTuple):
    """An ``owl:sameAs`` assertion between one entity from each dataset."""

    left: URIRef
    right: URIRef

    def reversed(self) -> "Link":
        """The same assertion with sides swapped."""
        return Link(self.right, self.left)

    def n3(self) -> str:
        """The link as an N-Triples owl:sameAs statement."""
        return f"{self.left.n3()} {OWL_SAMEAS.n3()} {self.right.n3()} ."

    def __str__(self):
        return f"{self.left} sameAs {self.right}"


def _order_key(link: Link) -> tuple[str, str]:
    """The sort key of :meth:`LinkSet.ordered`: both URIs, left first."""
    return (link.left.value, link.right.value)


class LinkSet:
    """A set of links with per-side indexes and optional scores.

    Orientation matters: ``left`` entities come from the first dataset and
    ``right`` from the second. ``by_left``/``by_right`` return the linked
    counterparts of an entity, which is what the federated query rewriter
    consults. ``ordered()`` returns the links sorted by their URIs; the
    order is built on its first call and kept up to date by ``add`` and
    ``remove`` from then on.
    """

    def __init__(self, links: Iterable[Link] = (), name: str = ""):
        self.name = name
        self._links: set[Link] = set()
        self._by_left: dict[URIRef, set[URIRef]] = {}
        self._by_right: dict[URIRef, set[URIRef]] = {}
        self._scores: dict[Link, float] = {}
        #: ordered() and its parallel sort keys; None until first asked for.
        self._ordered: list[Link] | None = None
        self._keys: list[tuple[str, str]] | None = None
        for link in links:
            self.add(link)

    # -- mutation --------------------------------------------------------- #

    def add(self, link: Link, score: float | None = None) -> bool:
        """Add a link (optionally scored). Returns True when new."""
        is_new = link not in self._links
        if is_new:
            self._links.add(link)
            self._by_left.setdefault(link.left, set()).add(link.right)
            self._by_right.setdefault(link.right, set()).add(link.left)
            if self._ordered is not None:
                key = _order_key(link)
                index = bisect_left(self._keys, key)
                self._keys.insert(index, key)
                self._ordered.insert(index, link)
        if score is not None:
            self._scores[link] = score
        return is_new

    def remove(self, link: Link) -> bool:
        """Remove a link. Returns True when it was present."""
        if link not in self._links:
            return False
        self._links.discard(link)
        self._scores.pop(link, None)
        rights = self._by_left.get(link.left)
        if rights is not None:
            rights.discard(link.right)
            if not rights:
                del self._by_left[link.left]
        lefts = self._by_right.get(link.right)
        if lefts is not None:
            lefts.discard(link.left)
            if not lefts:
                del self._by_right[link.right]
        if self._ordered is not None:
            index = bisect_left(self._keys, _order_key(link))
            while self._ordered[index] != link:  # only on equal sort keys
                index += 1
            del self._keys[index]
            del self._ordered[index]
        return True

    def update(self, links: Iterable[Link]) -> int:
        """Add many links; returns how many were new."""
        return sum(1 for link in links if self.add(link))

    # -- lookup ------------------------------------------------------------ #

    def score(self, link: Link, default: float | None = None) -> float | None:
        """The linker score of ``link``, or ``default`` when unscored."""
        return self._scores.get(link, default)

    def by_left(self, entity: URIRef) -> frozenset[URIRef]:
        """Right-side counterparts linked to a left-side entity."""
        return frozenset(self._by_left.get(entity, ()))

    def by_right(self, entity: URIRef) -> frozenset[URIRef]:
        """Left-side counterparts linked to a right-side entity."""
        return frozenset(self._by_right.get(entity, ()))

    def counterparts(self, entity: URIRef) -> frozenset[URIRef]:
        """Linked entities on either side of ``entity``."""
        return self.by_left(entity) | self.by_right(entity)

    def links_of(self, entity: URIRef) -> Iterator[Link]:
        """All links that mention ``entity`` on either side."""
        for right in self._by_left.get(entity, ()):
            yield Link(entity, right)
        for left in self._by_right.get(entity, ()):
            yield Link(left, entity)

    def ordered(self) -> list[Link]:
        """The links sorted by ``(left.value, right.value)``, read-only.

        The list is the set's own and changes with it: callers must not
        mutate it, and should copy it to keep a snapshot. The first call
        sorts; later ``add``/``remove`` calls keep it sorted by bisection,
        so a sampler that re-reads it after every change pays no sort.
        """
        if self._ordered is None:
            ordered = sorted(self._links, key=_order_key)
            self._keys = [_order_key(link) for link in ordered]
            self._ordered = ordered
        return self._ordered

    # -- whole-set operations ----------------------------------------------- #

    def filter_by_score(self, threshold: float) -> "LinkSet":
        """New LinkSet containing only links with score ≥ ``threshold``.

        Links without a score are dropped (unknown quality).
        """
        out = LinkSet(name=self.name)
        for link in self._links:
            score = self._scores.get(link)
            if score is not None and score >= threshold:
                out.add(link, score)
        return out

    def validate(
        self,
        left: Graph | None = None,
        right: Graph | None = None,
        theta: float | None = None,
        blacklist: Iterable[Link] | None = None,
    ):
        """Link-tier static analysis of this set (cycles, asymmetric
        duplicates, one-to-many conflicts; endpoint/score/blacklist checks
        when the corresponding argument is given). Returns ordered
        :class:`~repro.rdf.validate.DataDiagnostic` records — see
        :func:`repro.rdf.validate.validate_links`."""
        from repro.rdf.validate import validate_links

        return validate_links(self, left=left, right=right, theta=theta, blacklist=blacklist)

    def snapshot(self) -> frozenset[Link]:
        """An immutable copy of the current links (convergence checks)."""
        return frozenset(self._links)

    def copy(self) -> "LinkSet":
        """A deep, independent copy (indexes and scores included)."""
        out = LinkSet(name=self.name)
        out._links = set(self._links)
        out._by_left = {k: set(v) for k, v in self._by_left.items()}
        out._by_right = {k: set(v) for k, v in self._by_right.items()}
        out._scores = dict(self._scores)
        if self._ordered is not None:
            out._ordered = list(self._ordered)
            out._keys = list(self._keys)
        return out

    def to_graph(self) -> Graph:
        """Render as an RDF graph of owl:sameAs triples."""
        graph = Graph(name=self.name or "links")
        for link in self._links:
            graph.add(Triple(link.left, OWL_SAMEAS, link.right))
        return graph

    @classmethod
    def from_graph(cls, graph: Graph, name: str = "") -> "LinkSet":
        """Collect all owl:sameAs triples of ``graph`` into a LinkSet."""
        out = cls(name=name or graph.name)
        for triple in graph.triples(predicate=OWL_SAMEAS):
            if isinstance(triple.subject, URIRef) and isinstance(triple.object, URIRef):
                out.add(Link(triple.subject, triple.object))
        return out

    # -- set protocol --------------------------------------------------------- #

    def __contains__(self, link: Link) -> bool:
        return link in self._links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __bool__(self) -> bool:
        return bool(self._links)

    def __eq__(self, other):
        if not isinstance(other, LinkSet):
            return NotImplemented
        return self._links == other._links

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<LinkSet{label} with {len(self._links)} links>"


def change_fraction(before: frozenset[Link], after: frozenset[Link]) -> float:
    """Fraction of links changed between two snapshots.

    Defined as |symmetric difference| / max(1, |before|): the measure behind
    the paper's relaxed "<5% of links changed" convergence rule.
    """
    changed = len(before ^ after)
    return changed / max(1, len(before))
