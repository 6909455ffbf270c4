"""The Chrome trace export read back: the oracle of its losslessness.

:func:`repro.obs.tracing.chrome_trace_document` writes each episode's
header into its root span's ``args``, so the export should carry every
episode whole.  :func:`episodes_from_chrome` rebuilds the episodes from
a document; the tests compare them with the episodes that were exported.
"""

from repro.errors import ConfigurationError
from repro.obs.tracing import Episode, TraceSpan


def episodes_from_chrome(document: dict) -> list[Episode]:
    """Reconstruct episodes from a ``chrome_trace_document`` output."""
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ConfigurationError(
            "not a Chrome trace document (missing 'traceEvents')"
        )
    spans_by_episode: dict[str, list[TraceSpan]] = {}
    headers: dict[str, dict] = {}
    for event in document["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        eid = args.get("episode")
        if eid is None:
            continue
        span = TraceSpan(
            span_id=args["span"],
            parent_id=args["parent"],
            phase=event["name"],
            node=args["node"],
            start=event["ts"],
            end=event["ts"] + event["dur"],
            payload=dict(args.get("data", {})),
        )
        spans_by_episode.setdefault(eid, []).append(span)
        if span.parent_id == -1:
            headers[eid] = args
    episodes: list[Episode] = []
    for eid in sorted(spans_by_episode):
        header = headers.get(eid)
        if header is None:
            raise ConfigurationError(
                f"chrome trace episode {eid!r} has no root span"
            )
        spans = sorted(spans_by_episode[eid], key=lambda s: s.span_id)
        episodes.append(Episode(
            episode_id=eid,
            scenario_key=header.get("scenario", ""),
            member=header.get("member", spans[0].node),
            strategy=header.get("strategy", ""),
            origin=header.get("origin", ""),
            failure=header.get("failure", ""),
            outcome=header.get("outcome", "restored"),
            spans=spans,
        ))
    return episodes
