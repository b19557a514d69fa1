"""Emotion corpus ingestion: records, opinion annotations, label maps.

The interchange format is JSON Lines, one record per line, with character
offsets for every span so annotations stay decoupled from any tokenizer.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional

log = logging.getLogger(__name__)


def is_finite_number(value) -> bool:
    """A number, not a bool, that reads as a finite float (NaN compares false)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def load_json(path: str | Path, error: Callable[[str], Exception]):
    """The parsed UTF-8 JSON file; text that is neither raises ``error(message)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise error("invalid JSON (nested too deeply)") from exc
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text ({exc.reason})") from exc


EMOTIONS: tuple[str, ...] = (
    "optimism", "anxiety", "excitement", "disgust", "belief", "ambiguous",
    "amusement", "confusion", "anger", "panic", "surprise", "depression",
)
POLARITIES: tuple[str, ...] = ("positive", "negative", "neutral")
INTENSITIES: tuple[str, ...] = ("strong", "average", "weak")
SPLITS: tuple[str, ...] = ("train", "dev", "test")
SPAN_FIELDS: tuple[str, ...] = (
    "sentiment_expression", "holder", "target", "aspect_term", "qualifier")

# Published per-split label percentages and split totals used by
# validate_distribution when the corpus matches the full-size splits.
REFERENCE_TOTALS: dict[str, int] = {"train": 8000, "dev": 1000, "test": 1000}
REFERENCE_PERCENTAGES: dict[str, dict[str, float]] = {
    "train": {
        "optimism": 16.24, "anxiety": 13.74, "excitement": 13.65, "disgust": 12.96,
        "belief": 9.10, "ambiguous": 8.72, "amusement": 8.15, "confusion": 6.11,
        "anger": 3.86, "panic": 3.00, "surprise": 2.39, "depression": 2.08,
    },
    "dev": {
        "optimism": 16.20, "anxiety": 13.30, "excitement": 14.80, "disgust": 12.10,
        "belief": 9.10, "ambiguous": 8.60, "amusement": 8.30, "confusion": 6.00,
        "anger": 3.90, "panic": 3.30, "surprise": 2.40, "depression": 2.00,
    },
    "test": {
        "optimism": 16.30, "anxiety": 13.40, "excitement": 14.60, "disgust": 12.10,
        "belief": 8.90, "ambiguous": 8.70, "amusement": 8.30, "confusion": 6.00,
        "anger": 3.80, "panic": 3.10, "surprise": 2.90, "depression": 1.90,
    },
}
DISTRIBUTION_TOLERANCE = 0.01  # percentage points


class CorpusError(Exception):
    """Schema violations found while loading a corpus file."""

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        preview = "; ".join(self.issues[:5])
        more = "" if len(self.issues) <= 5 else f" (+{len(self.issues) - 5} more)"
        super().__init__(f"{len(self.issues)} corpus issue(s): {preview}{more}")


class LabelMapError(Exception):
    pass


@dataclass(frozen=True)
class Span:
    """Character offsets into a record's text: start inclusive, end exclusive."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class OpinionAnnotation:
    """One opinion on a sentence: up to five role spans plus its labels."""

    sentiment_expression: Optional[Span] = None
    holder: Optional[Span] = None
    target: Optional[Span] = None
    aspect_term: Optional[Span] = None
    qualifier: Optional[Span] = None
    polarity: str = "neutral"
    intensity: str = "average"
    aspect_category: str = ""
    target_entity: str = ""

    def spans(self) -> dict[str, Span]:
        present = {}
        for name in SPAN_FIELDS:
            value = getattr(self, name)
            if value is not None:
                present[name] = value
        return present

    def __post_init__(self):
        if not self.spans():
            raise ValueError("opinion annotation needs at least one span")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")
        if self.intensity not in INTENSITIES:
            raise ValueError(f"unknown intensity {self.intensity!r}")


@dataclass(frozen=True)
class Record:
    """One classification unit: text, emotion label, opinion annotations.

    ``graphs`` keeps the record's opinion graphs for as long as this record
    object lives: a token sequence maps to one slot per opinion, which
    ``graphs.build_subgraph`` fills.  It is not a field, so equality,
    hashing, ``repr`` and ``dump_corpus`` ignore it, and a pickle or copy
    leaves it behind and starts empty.
    """

    id: str
    split: str
    text: str
    emotion: str
    opinions: tuple[OpinionAnnotation, ...] = ()

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")
        if self.emotion not in EMOTIONS:
            raise ValueError(f"unknown emotion label {self.emotion!r}")
        for op in self.opinions:
            for name, span in op.spans().items():
                if span.end > len(self.text):
                    raise ValueError(
                        f"record {self.id}: {name} span [{span.start}, {span.end}) "
                        f"exceeds text length {len(self.text)}")

    @cached_property
    def graphs(self) -> dict[tuple, list]:
        # token sequence -> per opinion: its OpinionGraph, its GraphEmpty message,
        # or None until built
        return {}

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "graphs"}


@dataclass
class Corpus:
    records: list[Record] = field(default_factory=list)

    def split(self, name: str) -> list[Record]:
        return [r for r in self.records if r.split == name]

    def split_sizes(self) -> dict[str, int]:
        return {name: len(self.split(name)) for name in SPLITS}

    def __len__(self) -> int:
        return len(self.records)


def _parse_span(value, where: str, issues: list[str]) -> Optional[Span]:
    if value is None:
        return None
    if not isinstance(value, dict) or set(value) != {"start", "end"}:
        issues.append(f"{where}: span must be null or {{start, end}}")
        return None
    start, end = value["start"], value["end"]
    if type(start) is not int or type(end) is not int:  # bool is an int subclass
        issues.append(f"{where}: span offsets must be integers")
        return None
    try:
        return Span(start, end)
    except ValueError as exc:
        issues.append(f"{where}: {exc}")
        return None


def _utf8_encodable(value: str) -> bool:
    # Corpora are written, and texts hashed, as UTF-8: it cannot encode a lone surrogate.
    return value.encode("utf-8", "replace").decode("utf-8") == value


def _parse_record(obj: dict, line_no: int, issues: list[str]) -> Optional[Record]:
    where = f"line {line_no}"
    if not isinstance(obj, dict):
        issues.append(f"{where}: record must be a JSON object")
        return None
    for key in ("id", "split", "text", "emotion"):
        if key not in obj:
            issues.append(f"{where}: missing field '{key}'")
            return None
    rid = obj["id"]
    if not isinstance(rid, str) or not rid:
        issues.append(f"{where}: field 'id' must be a non-empty string")
        return None
    if obj["split"] not in SPLITS:
        issues.append(f"{where}: field 'split' has unknown value {obj['split']!r}")
        return None
    if not isinstance(obj["text"], str):
        issues.append(f"{where}: field 'text' must be a string")
        return None
    for key in ("id", "text"):
        if not _utf8_encodable(obj[key]):
            issues.append(f"{where}: field '{key}' holds a lone surrogate, "
                          "which UTF-8 cannot encode")
            return None
    if obj["emotion"] not in EMOTIONS:
        issues.append(f"{where}: field 'emotion' has unknown label {obj['emotion']!r}")
        return None

    opinions: list[OpinionAnnotation] = []
    raw_opinions = obj.get("opinions", [])
    if not isinstance(raw_opinions, list):
        issues.append(f"{where}: field 'opinions' must be an array")
        return None
    before = len(issues)
    for k, raw in enumerate(raw_opinions):
        op_where = f"{where} (record {rid}, opinion {k})"
        if not isinstance(raw, dict):
            issues.append(f"{op_where}: opinion must be an object")
            continue
        spans = {name: _parse_span(raw.get(name), f"{op_where} field '{name}'", issues)
                 for name in SPAN_FIELDS}
        labels = {}
        for name in ("aspect_category", "target_entity"):
            value = raw.get(name)
            if value is not None and not isinstance(value, str):
                issues.append(f"{op_where} field '{name}': must be a string or null")
            elif value and not _utf8_encodable(value):
                issues.append(f"{op_where} field '{name}': holds a lone surrogate, "
                              "which UTF-8 cannot encode")
            labels[name] = value or ""
        try:
            opinions.append(OpinionAnnotation(
                polarity=raw.get("polarity", "neutral"),
                intensity=raw.get("intensity", "average"),
                **labels, **spans,
            ))
        except ValueError as exc:
            issues.append(f"{op_where}: {exc}")
    if len(issues) > before:
        return None
    try:
        return Record(id=rid, split=obj["split"], text=obj["text"],
                      emotion=obj["emotion"], opinions=tuple(opinions))
    except ValueError as exc:
        issues.append(f"{where}: {exc}")
        return None


def parse_corpus(lines: Iterable[str]) -> tuple[Corpus, list[str]]:
    """Parse JSONL content; returns (corpus, issues with line numbers)."""
    issues: list[str] = []
    records: list[Record] = []
    seen_ids: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            issues.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        except RecursionError:
            issues.append(f"line {line_no}: invalid JSON (nested too deeply)")
            continue
        record = _parse_record(obj, line_no, issues)
        if record is None:
            continue
        if record.id in seen_ids:
            issues.append(
                f"line {line_no}: duplicate id {record.id!r} "
                f"(first seen on line {seen_ids[record.id]})")
            continue
        seen_ids[record.id] = line_no
        records.append(record)
    return Corpus(records), issues


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a JSONL corpus; raises CorpusError on any violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            corpus, issues = parse_corpus(fh)
    except UnicodeDecodeError as exc:
        raise CorpusError([f"{path}: not UTF-8 text ({exc.reason})"]) from exc
    if issues:
        raise CorpusError(issues)
    return corpus


def _span_to_json(span: Optional[Span]):
    return None if span is None else {"start": span.start, "end": span.end}


def record_to_json(record: Record) -> dict:
    return {
        "id": record.id,
        "split": record.split,
        "text": record.text,
        "emotion": record.emotion,
        "opinions": [
            {
                "sentiment_expression": _span_to_json(op.sentiment_expression),
                "holder": _span_to_json(op.holder),
                "target": _span_to_json(op.target),
                "aspect_term": _span_to_json(op.aspect_term),
                "qualifier": _span_to_json(op.qualifier),
                "polarity": op.polarity,
                "intensity": op.intensity,
                "aspect_category": op.aspect_category,
                "target_entity": op.target_entity,
            }
            for op in record.opinions
        ],
    }


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical JSONL serialization (round-trips through load)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in corpus.records:
            fh.write(json.dumps(record_to_json(record), ensure_ascii=False))
            fh.write("\n")


@dataclass(frozen=True)
class LabelMap:
    """Total mapping from the 12 emotion labels onto coarser groups.

    Every emotion appears exactly once: either as a mapping key or in the
    excluded set.  Excluded labels keep their own name in remapped output
    but are left out of aggregated scores.
    """

    name: str
    mapping: dict[str, str]
    excluded: frozenset[str] = frozenset()

    def __post_init__(self):
        for label in self.mapping:
            if label not in EMOTIONS:
                raise LabelMapError(f"label map {self.name!r}: unknown label {label!r}")
        for label in self.excluded:
            if label not in EMOTIONS:
                raise LabelMapError(f"label map {self.name!r}: unknown excluded label {label!r}")
            if label in self.mapping:
                raise LabelMapError(
                    f"label map {self.name!r}: label {label!r} both mapped and excluded")
        missing = [lab for lab in EMOTIONS if lab not in self.mapping and lab not in self.excluded]
        if missing:
            raise LabelMapError(f"label map {self.name!r}: missing label {missing[0]!r}")

    def group_of(self, label: str) -> str:
        """Group for a label; excluded labels map to their own name."""
        if label in self.excluded:
            return label
        try:
            return self.mapping[label]
        except KeyError:
            raise LabelMapError(f"label map {self.name!r}: unknown label {label!r}") from None

    def groups(self) -> tuple[str, ...]:
        """Scored groups, ordered by first appearance over the emotion list."""
        ordered: list[str] = []
        for label in EMOTIONS:
            if label in self.excluded:
                continue
            group = self.mapping[label]
            if group not in ordered:
                ordered.append(group)
        return tuple(ordered)


def load_label_map(path: str | Path) -> LabelMap:
    obj = load_json(path, lambda message: LabelMapError(f"{path}: {message}"))
    if not isinstance(obj, dict) or "name" not in obj or "mapping" not in obj:
        raise LabelMapError(f"{path}: label map needs 'name' and 'mapping'")
    name, mapping, excluded = obj["name"], obj["mapping"], obj.get("excluded", [])
    if not isinstance(mapping, dict):
        raise LabelMapError(f"{path}: 'mapping' must be an object")
    if not isinstance(excluded, list):
        raise LabelMapError(f"{path}: 'excluded' must be a list")
    for value in (name, *mapping.values(), *excluded):
        if not isinstance(value, str):
            raise LabelMapError(f"{path}: name, groups and excluded labels must be "
                                f"strings, got {type(value).__name__}")
    return LabelMap(name=name, mapping=dict(mapping), excluded=frozenset(excluded))


DEFAULT_LABEL_MAPS = ("ekman6", "valence3")


def default_label_map(name: str) -> LabelMap:
    """Load one of the label maps shipped with the package."""
    if name not in DEFAULT_LABEL_MAPS:
        raise LabelMapError(f"no default label map named {name!r}; "
                            f"available: {', '.join(DEFAULT_LABEL_MAPS)}")
    ref = resources.files("opfuse").joinpath(f"label_maps/{name}.json")
    with resources.as_file(ref) as path:
        return load_label_map(path)


def resolve_label_map(name_or_path: str) -> LabelMap:
    """Accept a default map name or a path to a label-map JSON file.

    A value that is neither an existing file nor path-like (no directory
    separator, no ``.json`` suffix) is read as a default map name, so a
    mistyped name is reported as an unknown name, not as a missing file.
    """
    path = Path(name_or_path)
    if name_or_path not in DEFAULT_LABEL_MAPS and (
            path.is_file() or path.name != name_or_path or path.suffix == ".json"):
        return load_label_map(name_or_path)
    return default_label_map(name_or_path)


@dataclass
class SplitDistribution:
    total: int
    counts: dict[str, int]
    percentages: dict[str, float]
    deviations: dict[str, float]  # vs the published table, percentage points
    flagged: list[str]            # labels beyond tolerance (full-size splits only)


@dataclass
class DistributionReport:
    splits: dict[str, SplitDistribution]
    reference_sizes_match: bool

    def to_json(self) -> dict:
        return {
            "reference_sizes_match": self.reference_sizes_match,
            "splits": {
                name: {
                    "total": dist.total,
                    "counts": dist.counts,
                    "percentages": dist.percentages,
                    "deviations": dist.deviations,
                    "flagged": dist.flagged,
                }
                for name, dist in self.splits.items()
            },
        }

    def to_text(self) -> str:
        lines = []
        sizes = " / ".join(f"{name} {self.splits[name].total}" for name in SPLITS)
        lines.append(sizes)
        header = f"{'label':<12}" + "".join(f"{name:>18}" for name in SPLITS)
        lines.append(header)
        for label in EMOTIONS:
            row = f"{label:<12}"
            for name in SPLITS:
                dist = self.splits[name]
                pct = dist.percentages[label]
                mark = "*" if label in dist.flagged else " "
                row += f"{pct:>16.2f}%{mark}"
            lines.append(row)
        if self.reference_sizes_match:
            flagged = sum(len(d.flagged) for d in self.splits.values())
            lines.append(f"published-table check: {flagged} label(s) beyond "
                         f"{DISTRIBUTION_TOLERANCE} points")
        else:
            lines.append("split sizes differ from 8000/1000/1000; "
                         "percentages reported without strict checks")
        return "\n".join(lines)


def validate_distribution(corpus: Corpus) -> DistributionReport:
    """Per-split label percentages, checked against the published breakdown.

    Strict flagging only applies when split sizes equal 8000/1000/1000;
    otherwise deviations are reported for information.
    """
    if not corpus.records:
        raise ValueError("cannot compute a distribution for an empty corpus")
    sizes = corpus.split_sizes()
    sizes_match = sizes == REFERENCE_TOTALS
    splits: dict[str, SplitDistribution] = {}
    for name in SPLITS:
        records = corpus.split(name)
        total = len(records)
        counts = {label: 0 for label in EMOTIONS}
        for record in records:
            counts[record.emotion] += 1
        percentages = {
            label: (100.0 * counts[label] / total if total else 0.0)
            for label in EMOTIONS
        }
        deviations = {
            label: abs(percentages[label] - REFERENCE_PERCENTAGES[name][label])
            for label in EMOTIONS
        }
        flagged = ([label for label in EMOTIONS
                    if deviations[label] > DISTRIBUTION_TOLERANCE]
                   if sizes_match else [])
        splits[name] = SplitDistribution(total, counts, percentages, deviations, flagged)
    return DistributionReport(splits=splits, reference_sizes_match=sizes_match)
