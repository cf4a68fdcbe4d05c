"""Hand-built decision records for synthetic ledgers."""

from dataclasses import fields

from repro.obs.events import DecisionRecord, RecordKind

_FIELDS = {f.name for f in fields(DecisionRecord)}


def record(kind: RecordKind, **given: object) -> DecisionRecord:
    """A :class:`DecisionRecord` of *kind*; keywords that are not record
    fields become its attributes, as :func:`repro.obs.decisions.record`
    files them."""
    return DecisionRecord(
        kind,
        **{k: v for k, v in given.items() if k in _FIELDS},
        attributes=tuple(sorted(
            (k, str(v)) for k, v in given.items() if k not in _FIELDS
        )),
    )
