"""Prepared entities: precomputed similarity inputs plus a score memo cache.

The naive similarity kernel re-derives everything from raw lexical forms for
every (entity, entity) pair: normalization, token sets, typed values. During
feature-space construction each entity participates in many pairs, so the
same derivations run thousands of times. This module computes them **once**
per entity (:class:`PreparedEntity` / :class:`PreparedTerm`), adds bounded
memo caches on value-pair scores keyed by normalized lexical forms (literals
repeat heavily across entities — years, cities, person names) and on
attribute-pair best scores keyed by interned object tuples, and applies
θ-aware upper bounds (see :mod:`repro.similarity.strings`) that skip the
expensive string metrics when the score provably cannot matter.

The attribute-pair memo is θ-agnostic: one float per tuple pair, the exact
best when it reached the floor it was computed at, else that floor negated
("below θ"). Its two consumers — the feature-space build at θ and PARIS's
evidence collection at τ (:mod:`repro.paris.align`), both through
:func:`~repro.features.feature_set.similarity_matrix_prepared` and
:func:`prepare_pairs` — thus share one scoring pass: a θ=0.3 build answers
every τ=0.8 evidence query from its entries.

Invariant: for every feature the θ-filter admits (and every τ-evidence
match), the fast path produces a score **bit-identical** to the naive path —
the prepared forms feed the very same metric functions, the caches only
store their outputs, and a bound-based skip happens only when the skipped
score could not change the admitted result. ``tests/test_perf_fastpath.py``
and ``tests/test_paris_parity.py`` enforce this end to end.
"""

from __future__ import annotations

from datetime import date, datetime
from typing import Iterable, Iterator

from repro import obs
from repro.rdf.entity import Entity
from repro.rdf.terms import Literal, Term, URIRef
from repro.similarity.generic import humanize_local_name
from repro.similarity.numbers import (
    boolean_similarity,
    date_similarity,
    numeric_similarity,
    year_similarity,
)
from repro.similarity.strings import (
    _common_char_count,
    _trigrams,
    jaro_winkler_bound_from_stats,
    normalize,
    shared_prefix_length,
    token_jaccard_bound_from_sizes,
    tokens,
)

#: Default bound on the value-pair score memo cache (entries, not bytes).
DEFAULT_SCORE_CACHE_SIZE = 1 << 18

#: Default bound on the per-term preparation cache.
DEFAULT_TERM_CACHE_SIZE = 1 << 16


class PreparedText:
    """One string's precomputed similarity inputs.

    ``norm`` is the canonical form every metric compares; ``tokens`` and
    ``char_counts`` feed the Jaccard score and the Jaro-Winkler upper bound.
    Trigram sets are derived lazily (nothing in the composite score needs
    them, but soft-TFIDF / Dice consumers reuse the prepared form).
    """

    __slots__ = ("norm", "length", "tokens", "char_counts", "char_positions", "_trigrams")

    def __init__(self, raw: str):
        self.norm = normalize(raw)
        self.length = len(self.norm)
        self.tokens = frozenset(tokens(self.norm))
        positions: dict[str, list[int]] = {}
        for index, char in enumerate(self.norm):
            if char in positions:
                positions[char].append(index)
            else:
                positions[char] = [index]
        #: char → sorted occurrence indexes; drives the prepared Jaro kernel
        self.char_positions = positions
        self.char_counts = {char: len(occ) for char, occ in positions.items()}
        self._trigrams: frozenset[str] | None = None

    @property
    def trigrams(self) -> frozenset[str]:
        if self._trigrams is None:
            self._trigrams = frozenset(_trigrams(self.norm))
        return self._trigrams

    def __repr__(self):
        return f"PreparedText({self.norm!r})"


#: Term categories mirroring the dispatch of ``object_similarity``.
_KIND_LITERAL = 0
_KIND_URI = 1
_KIND_OTHER = 2  # blank nodes etc. — the generic function scores these 0.0


class PreparedTerm:
    """One RDF object term with its typed value and string forms precomputed."""

    __slots__ = ("term", "kind", "value", "is_bool", "is_num", "is_year", "is_date", "text")

    def __init__(self, term: Term):
        self.term = term
        self.is_bool = self.is_num = self.is_year = self.is_date = False
        self.value = None
        if isinstance(term, Literal):
            self.kind = _KIND_LITERAL
            value = term.to_python()
            self.value = value
            self.is_bool = isinstance(value, bool)
            self.is_num = isinstance(value, (int, float))
            self.is_year = isinstance(value, int) and 1000 <= value <= 2999
            self.is_date = isinstance(value, (date, datetime))
            self.text = PreparedText(term.lexical)
        elif isinstance(term, URIRef):
            self.kind = _KIND_URI
            self.text = PreparedText(humanize_local_name(term.local_name))
        else:
            self.kind = _KIND_OTHER
            self.text = PreparedText("")

    def __repr__(self):
        return f"PreparedTerm({self.term!r})"


class PreparedEntity:
    """An :class:`~repro.rdf.entity.Entity` with every object term prepared."""

    __slots__ = ("entity", "uri", "arity", "attributes", "attr_items")

    def __init__(self, entity: Entity):
        self.entity = entity
        self.uri = entity.uri
        self.arity = entity.arity
        self.attributes = {
            predicate: prepare_objects(objects)
            for predicate, objects in entity.attributes.items()
        }
        #: items() materialized once — the matrix loop iterates it per pair
        self.attr_items = tuple(self.attributes.items())

    def __repr__(self):
        return f"<PreparedEntity {self.uri} with {self.arity} predicates>"


# --------------------------------------------------------------------- #
# Caches and their statistics
# --------------------------------------------------------------------- #

_term_cache: dict[Term, PreparedTerm] = {}
_term_cache_max = DEFAULT_TERM_CACHE_SIZE

#: Attribute tuples interned by their raw terms, so equal-valued attributes
#: of different entities share one prepared tuple object — which is what
#: lets the best-pairing memo below key by identity.
_objects_intern: dict[tuple[Term, ...], tuple[PreparedTerm, ...]] = {}
_objects_intern_max = DEFAULT_TERM_CACHE_SIZE

_score_cache: dict[tuple[str, str], float] = {}
_score_cache_max = DEFAULT_SCORE_CACHE_SIZE

#: Memo of best_prepared_similarity over interned attribute tuples, keyed by
#: the tuples themselves (identity hash — cheap, and keeps them alive so the
#: key can never dangle). Repeated attribute combinations — constant
#: rdf:type values, pool values like cities and teams — resolve in one probe.
#: The key carries no θ: an entry is the exact best when that is ≥ the θ it
#: was computed at, else ``-θ`` ("below θ"). A query at τ ≥ 0 can reuse it
#: whenever ``-entry ≤ τ`` — so a θ=0.3 space build answers PARIS's τ=0.8
#: evidence queries without scoring anything again.
_best_cache: dict[tuple[tuple[PreparedTerm, ...], tuple[PreparedTerm, ...]], float] = {}
_best_cache_max = DEFAULT_SCORE_CACHE_SIZE

_stats = {"hits": 0, "misses": 0, "attr_hits": 0, "attr_misses": 0, "skipped": 0}


def configure_score_cache(maxsize: int) -> None:
    """Bound the value-pair and attribute-pair score caches (0 disables)."""
    global _score_cache_max, _best_cache_max
    _score_cache_max = _best_cache_max = max(0, int(maxsize))
    while len(_score_cache) > _score_cache_max:
        _score_cache.pop(next(iter(_score_cache)))
    while len(_best_cache) > _best_cache_max:
        _best_cache.pop(next(iter(_best_cache)))


def clear_caches() -> None:
    """Drop all prepared-term and score cache entries (stats stay)."""
    _term_cache.clear()
    _objects_intern.clear()
    _score_cache.clear()
    _best_cache.clear()


def cache_info() -> dict:
    """Current cache sizes and unflushed hit/miss/skip tallies."""
    return {
        "score_entries": len(_score_cache),
        "score_max": _score_cache_max,
        "attr_entries": len(_best_cache),
        "attr_max": _best_cache_max,
        "term_entries": len(_term_cache),
        "term_max": _term_cache_max,
        **_stats,
    }


def flush_similarity_stats() -> None:
    """Publish accumulated cache/prefilter tallies as obs counters.

    The hot loop counts locally (an obs counter lookup per value pair would
    dominate the savings) and the space builder flushes once per build, so
    ``similarity.cache.{hits,misses}`` (labelled by cache layer) and
    ``similarity.prefilter.skipped`` appear in the snapshot of whichever
    registry is current at flush time.
    """
    if _stats["hits"]:
        obs.inc("similarity.cache.hits", _stats["hits"], layer="value")
    if _stats["misses"]:
        obs.inc("similarity.cache.misses", _stats["misses"], layer="value")
    if _stats["attr_hits"]:
        obs.inc("similarity.cache.hits", _stats["attr_hits"], layer="attribute")
    if _stats["attr_misses"]:
        obs.inc("similarity.cache.misses", _stats["attr_misses"], layer="attribute")
    if _stats["skipped"]:
        obs.inc("similarity.prefilter.skipped", _stats["skipped"])
    for key in list(_stats):
        _stats[key] = 0


def prepare_term(term: Term) -> PreparedTerm:
    """Prepared view of one object term, interned across entities."""
    prepared = _term_cache.get(term)
    if prepared is None:
        prepared = PreparedTerm(term)
        if len(_term_cache) >= _term_cache_max:
            _term_cache.pop(next(iter(_term_cache)))
        _term_cache[term] = prepared
    return prepared


def prepare_objects(objects: tuple[Term, ...]) -> tuple[PreparedTerm, ...]:
    """Prepared view of one attribute's object tuple, interned by value."""
    prepared = _objects_intern.get(objects)
    if prepared is None:
        prepared = tuple(prepare_term(obj) for obj in objects)
        if len(_objects_intern) >= _objects_intern_max:
            _objects_intern.pop(next(iter(_objects_intern)))
        _objects_intern[objects] = prepared
    return prepared


def prepare_entity(entity: Entity) -> PreparedEntity:
    """Prepared view of one entity (terms interned via :func:`prepare_term`)."""
    return PreparedEntity(entity)


def prepare_pairs(
    pairs: Iterable[tuple[Entity, Entity]],
) -> Iterator[tuple[PreparedEntity, PreparedEntity]]:
    """The candidate pairs as prepared entities, each entity prepared once.

    The one scoring loop shared by the space build and PARIS's evidence
    collection: both feed these pairs to ``similarity_matrix_prepared``.
    """
    prepared: dict[Entity, PreparedEntity] = {}
    for left, right in pairs:
        prepared_left = prepared.get(left)
        if prepared_left is None:
            prepared_left = prepared[left] = PreparedEntity(left)
        prepared_right = prepared.get(right)
        if prepared_right is None:
            prepared_right = prepared[right] = PreparedEntity(right)
        yield prepared_left, prepared_right


# --------------------------------------------------------------------- #
# Scoring
# --------------------------------------------------------------------- #


def _prepared_jaro_winkler(
    text_a: PreparedText, text_b: PreparedText, shared_prefix: int
) -> float:
    """Jaro-Winkler over prepared texts, bit-identical to the generic metric.

    The generic ``jaro_similarity`` scans a window of ``b`` for every char of
    ``a``; this kernel replays the same greedy matching through ``b``'s
    precomputed char→positions lists with one advancing pointer per char.
    A position is passed over only when it is consumed by a match or falls
    permanently below the (monotonically advancing) window, so the matched
    (i, j) set — and with it the match and transposition counts — is exactly
    the generic algorithm's. The final expressions reuse the generic
    functions' operand order, so the floats are identical too.
    """
    norm_a, norm_b = text_a.norm, text_b.norm
    len_a, len_b = text_a.length, text_b.length
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    positions_b = text_b.char_positions
    pointers: dict[str, int] = {}
    matched_chars: list[str] = []
    matched_js: list[int] = []
    for i, char in enumerate(norm_a):
        occurrences = positions_b.get(char)
        if occurrences is None:
            continue
        pointer = pointers.get(char, 0)
        limit = len(occurrences)
        low = i - window
        while pointer < limit and occurrences[pointer] < low:
            pointer += 1
        if pointer < limit and occurrences[pointer] <= i + window:
            matched_js.append(occurrences[pointer])
            matched_chars.append(char)
            pointer += 1
        pointers[char] = pointer
    matches = len(matched_js)
    if matches == 0:
        jaro = 0.0
    else:
        matched_js.sort()
        transpositions = 0
        for char, j in zip(matched_chars, matched_js):
            if norm_b[j] != char:
                transpositions += 1
        transpositions //= 2
        jaro = (
            matches / len_a + matches / len_b + (matches - transpositions) / matches
        ) / 3.0
    return jaro + shared_prefix * 0.1 * (1.0 - jaro)


def _token_jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    # Mirrors token_jaccard_similarity on prebuilt sets, including the
    # both-empty → 1.0 convention.
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def _string_score(text_a: PreparedText, text_b: PreparedText, floor: float) -> float | None:
    """Composite string score from prepared forms, memoized and θ-bounded.

    Returns the exact ``string_similarity`` value, or ``None`` when a cheap
    upper bound proves the score is below ``floor`` (in which case it cannot
    change any admitted feature — see the module docstring).
    """
    norm_a, norm_b = text_a.norm, text_b.norm
    if norm_a == norm_b:
        return 1.0
    if not norm_a or not norm_b:
        return 0.0
    key = (norm_a, norm_b)
    cached = _score_cache.get(key)
    if cached is not None:
        _stats["hits"] += 1
        return cached
    prefix = shared_prefix_length(norm_a, norm_b)
    jw_bound = jaro_winkler_bound_from_stats(
        text_a.length,
        text_b.length,
        _common_char_count(text_a.char_counts, text_b.char_counts),
        prefix,
    )
    if floor > 0.0 and jw_bound < floor:
        if token_jaccard_bound_from_sizes(len(text_a.tokens), len(text_b.tokens)) < floor:
            _stats["skipped"] += 1
            return None
    _stats["misses"] += 1
    jaccard = _token_jaccard(text_a.tokens, text_b.tokens)
    if jw_bound <= jaccard:
        # max(jw, jaccard) == jaccard exactly — Jaro never needs to run
        score = jaccard
    else:
        jw = _prepared_jaro_winkler(text_a, text_b, prefix)
        score = jw if jw > jaccard else jaccard
    if _score_cache_max > 0:
        if len(_score_cache) >= _score_cache_max:
            _score_cache.pop(next(iter(_score_cache)))
        _score_cache[key] = score
    return score


def _pair_score(a: PreparedTerm, b: PreparedTerm, floor: float) -> float | None:
    """Exact ``object_similarity`` of two prepared terms, or ``None`` when a
    bound proves the score is below ``floor``."""
    if a.kind == _KIND_LITERAL and b.kind == _KIND_LITERAL:
        # Typed branches are cheap; compute them directly (dispatch order
        # mirrors literal_similarity exactly, including bool ⊂ int).
        if a.is_bool and b.is_bool:
            return boolean_similarity(a.value, b.value)
        if a.is_num and b.is_num:
            if a.is_year and b.is_year:
                return year_similarity(int(a.value), int(b.value))
            return numeric_similarity(float(a.value), float(b.value))
        if a.is_date and b.is_date:
            return date_similarity(a.value, b.value)
        return _string_score(a.text, b.text, floor)
    if a.kind == _KIND_URI and b.kind == _KIND_URI:
        if a.term == b.term:
            return 1.0
        return _string_score(a.text, b.text, floor)
    if a.kind == _KIND_OTHER or b.kind == _KIND_OTHER:
        return 0.0
    # Literal vs URI (either order): lexical form against humanized name.
    return _string_score(a.text, b.text, floor)


def prepared_object_similarity(a: PreparedTerm, b: PreparedTerm) -> float:
    """Exact generic similarity of two prepared terms (no θ shortcuts);
    bit-identical to ``object_similarity(a.term, b.term)``."""
    score = _pair_score(a, b, 0.0)
    assert score is not None  # floor 0.0 never triggers a bound skip
    return score


def best_prepared_similarity(
    objects_a: tuple[PreparedTerm, ...],
    objects_b: tuple[PreparedTerm, ...],
    theta: float = 0.0,
) -> float:
    """Max pairwise similarity between two prepared object collections.

    Matches ``best_object_similarity`` exactly whenever the result is ≥ θ;
    below θ the returned value is some score < θ (0.0 or the exact best),
    which is what lets the upper bounds skip work — the caller drops sub-θ
    scores either way. The result is memoized per interned tuple pair,
    whatever θ (see ``_best_cache``); a memo entry is a pure function of its
    inputs, so replaying it is exact.
    """
    key = (objects_a, objects_b)
    entry = _best_cache.get(key)
    # For θ ≥ 0, "entry ≥ 0 or -entry ≤ θ" is just -entry ≤ θ.
    if entry is None or -entry > theta:
        entry = _best_uncached(objects_a, objects_b, theta, key)
    else:
        _stats["attr_hits"] += 1
    return entry if entry >= 0.0 else 0.0


def _best_uncached(
    objects_a: tuple[PreparedTerm, ...],
    objects_b: tuple[PreparedTerm, ...],
    theta: float,
    key: tuple,
) -> float:
    """Memo-miss body of :func:`best_prepared_similarity`; returns the memo
    entry: the exact best when it is ≥ θ, else the ``-θ`` sentinel."""
    _stats["attr_misses"] += 1
    if len(objects_a) == 1 and len(objects_b) == 1:
        # the common single-valued case skips the loop scaffolding entirely
        score = _pair_score(objects_a[0], objects_b[0], theta)
        best = score if score is not None else 0.0
    else:
        best = 0.0
        for obj_a in objects_a:
            for obj_b in objects_b:
                floor = best if best > theta else theta
                score = _pair_score(obj_a, obj_b, floor)
                if score is not None and score > best:
                    best = score
                    if best >= 1.0:
                        break
            if best >= 1.0:
                break
    # below θ, best may be an underestimate: keep only the fact "< θ"
    entry = best if best >= theta else -float(theta)
    if _best_cache_max > 0:
        if len(_best_cache) >= _best_cache_max:
            _best_cache.pop(next(iter(_best_cache)))
        _best_cache[key] = entry
    return entry
