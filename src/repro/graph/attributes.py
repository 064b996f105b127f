"""Attribute handling for attributed graphs.

Community detection and graph clustering (§8.1) operate on graphs whose
vertices carry attribute lists: interest tags in Tencent, publication
venues in DBLP, and — for the synthetic runs — 5-dimensional uniform
attribute vectors like the paper's footnote 7 describes
(``{A1, B5, C10, D6, E4}``).  We encode an attribute as an integer
``dimension * base + value`` so lists stay cheap tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Dict, Iterable, List, Sequence, Tuple

#: Encoding base: attribute integer = dimension * BASE + value.
DIMENSION_BASE = 1000


@dataclass(frozen=True)
class AttributeSpace:
    """Describes a synthetic attribute universe.

    ``dimensions`` named dimensions, each taking integer values in
    ``[1, values_per_dimension]`` — the paper's synthetic attributes use
    5 dimensions ([A-E]) with values [1-10].
    """

    dimensions: int = 5
    values_per_dimension: int = 10

    def encode(self, dimension: int, value: int) -> int:
        """Pack (dimension, value) into one attribute integer."""
        if not 0 <= dimension < self.dimensions:
            raise ValueError(f"dimension {dimension} out of range")
        if not 1 <= value <= self.values_per_dimension:
            raise ValueError(f"value {value} out of range")
        return dimension * DIMENSION_BASE + value

    def decode(self, attr: int) -> Tuple[int, int]:
        """Unpack an attribute integer into (dimension, value)."""
        return divmod(attr, DIMENSION_BASE)

    def describe(self, attr: int) -> str:
        """Human form, e.g. ``A7`` for dimension 0 value 7."""
        dim, value = self.decode(attr)
        return f"{chr(ord('A') + dim)}{value}"

    @property
    def total_values(self) -> int:
        """Size of the whole attribute universe (|Attr| in Table 2)."""
        return self.dimensions * self.values_per_dimension


def sorted_unique(attrs: Iterable[int]) -> Tuple[int, ...]:
    """``attrs`` as a strictly ascending tuple, the ``*_sorted`` input
    form; a tuple that already is one (every generator's output) is
    returned untouched."""
    if type(attrs) is tuple and all(map(lt, attrs, attrs[1:])):
        return attrs
    return tuple(sorted(set(attrs)))


def _merge(ia: Tuple[int, ...], ib: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
    """Intersection and union, both ascending, of two strictly
    ascending tuples in one two-pointer pass: at 4 to 10 values (every
    attribute list here) cheaper than any set-kernel handle (DESIGN §1)."""
    shared: List[int] = []
    either: List[int] = []
    i = j = 0
    la, lb = len(ia), len(ib)
    while i < la and j < lb:
        x, y = ia[i], ib[j]
        if x <= y:
            either.append(x)
            i += 1
            if x == y:
                shared.append(x)
                j += 1
        else:
            either.append(y)
            j += 1
    either.extend(ia[i:] or ib[j:])  # at most one side has a tail
    return shared, either


def jaccard_similarity(a: Sequence[int], b: Sequence[int]) -> float:
    """Jaccard similarity of two attribute lists (CD's filter condition)."""
    return jaccard_sorted(sorted_unique(a), sorted_unique(b))


def jaccard_sorted(ia: Tuple[int, ...], ib: Tuple[int, ...]) -> float:
    """Jaccard of two strictly ascending plain tuples
    (:func:`sorted_unique` output); two empty lists are identical."""
    shared, either = _merge(ia, ib)
    return len(shared) / len(either) if either else 1.0


def overlap_count(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of shared attribute values."""
    return len(_merge(sorted_unique(a), sorted_unique(b))[0])


#: Denominator weight of an attribute outside the focus set.  FocusCO
#: learns a full weight vector where unfocused attributes get small but
#: non-zero mass; without it, two vertices sharing one low-weight focus
#: attribute (and nothing else weighted) would score a perfect 1.0,
#: which lets clusters grow through attribute noise.
DEFAULT_UNFOCUSED_WEIGHT = 0.03


def weighted_similarity(
    a: Sequence[int],
    b: Sequence[int],
    weights: Dict[int, float],
    default_weight: float = DEFAULT_UNFOCUSED_WEIGHT,
) -> float:
    """Attribute similarity weighted per attribute value.

    FocusCO-style clustering (§8.1, [21]) learns a weight per attribute
    from user exemplars, then measures similarity as the weighted share
    of matching attributes.  Unfocused attributes score nothing but
    still dilute the denominator by ``default_weight`` each, so
    similarity is driven by the focus attributes while attribute noise
    dampens coincidental low-weight matches.
    """
    return weighted_similarity_sorted(
        sorted_unique(a), sorted_unique(b), weights, default_weight
    )


def weighted_similarity_sorted(
    ia: Tuple[int, ...],
    ib: Tuple[int, ...],
    weights: Dict[int, float],
    default_weight: float = DEFAULT_UNFOCUSED_WEIGHT,
) -> float:
    """:func:`weighted_similarity` of two strictly ascending plain
    tuples (:func:`sorted_unique` output).

    Both sums are the builtin ``sum()`` over weights in ascending
    attribute order: the order is the symmetry guarantee (float addition
    is not associative), the builtin the bit-identity one (compensated
    on Python ≥ 3.12, which a ``+=`` accumulator would not be).
    """
    shared, either = _merge(ia, ib)
    norm = sum([weights.get(attr, default_weight) for attr in either])
    if norm == 0.0:
        return 0.0
    return sum([weights.get(attr, 0.0) for attr in shared]) / norm


def infer_attribute_weights(
    exemplars: Iterable[Sequence[int]],
) -> Dict[int, float]:
    """Learn attribute weights from exemplar vertices (FocusCO step 1).

    Attributes shared by many exemplar pairs get high weight; attributes
    appearing in few exemplars get low weight.  Weight of attribute
    ``x`` = (fraction of exemplars containing ``x``) squared, which
    emphasises consensus attributes, normalised to sum to 1.
    """
    exemplar_list = [set(e) for e in exemplars]
    if not exemplar_list:
        return {}
    counts: Dict[int, int] = {}
    for attrs in exemplar_list:
        for attr in attrs:
            counts[attr] = counts.get(attr, 0) + 1
    n = len(exemplar_list)
    raw = {attr: (c / n) ** 2 for attr, c in counts.items()}
    total = sum(raw.values())
    if total == 0.0:
        return {}
    return {attr: w / total for attr, w in raw.items()}
