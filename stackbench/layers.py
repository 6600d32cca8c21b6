"""Per-layer rows from recorded spans: where each request's time went.

Every traced request's client-observed latency is partitioned exactly: each
instant of it is charged to one row.  A span's *self time* is its duration
minus the time its child spans cover; a span with no row of its own hands
its self time to its parent's row.  The rows of one request therefore add
up to its latency by construction, and ``trace.unattributed_ms`` holds what
no layer claims (the event-loop hop that fans a batch's results back out).

A coalesced batch is shared: every request in it waited for the whole
batch, so each is charged the batch's full subtree.  Counts (kernel calls,
rounds, attempts) are divided by the number of requests instead, because
they measure work, not waiting.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from stackbench.tracer import Span

#: The nine :class:`~repro.kernels.KernelSet` entries, in declaration order.
KERNEL_NAMES = (
    "column_select",
    "edge_positions",
    "gather_accept",
    "sorted_block_counts",
    "corner_qualifying",
    "corner_pick",
    "packed_lookup",
    "counts_gather",
    "rejection_accept",
)

UNATTRIBUTED = "trace.unattributed_ms"
UPDATE_UNATTRIBUTED = "trace.update_unattributed_ms"

#: Span name -> row, inside a draw's batch subtree.
DRAW_ROWS = {
    "manager.draw_batch": "manager.self_ms",
    "manager.enforce_budget": "draw.enforce_budget_ms",
    "session.draw_batch": "session.draw_self_ms",
    "sampler.prepare": "draw.cold_prepare_ms",
    "bbst.nbytes": "draw.cold_prepare_ms",
    "sampler.sample": "sampler.sample_ms",
    "sampler.assemble": "sampler.assemble_ms",
    "alias.draw_many": "alias.draw_many_ms",
    "kernels.*": "kernels.ms_per_request",
}

#: Span name -> row, inside an update's manager subtree.
UPDATE_ROWS = {
    "manager.update": "update.manager_self_ms",
    "manager.enforce_budget": "manager.enforce_budget_ms",
    "session.update": "session.update_self_ms",
    "dynamic.update": "dynamic.update_ms",
    "dynamic.flush": "dynamic.flush_ms",
    "alias.build": "alias.build_ms",
    "bbst.nbytes": "bbst.nbytes_ms",
}

#: Spans charged whole: the cold path's rebuild is one row of the draw.
COLLAPSED = frozenset({"sampler.prepare"})

DRAW_PARTITION = (
    "http.overhead_ms",
    "http.result_to_json_ms",
    "service.admission_wait_ms",
    "service.coalesce_wait_ms",
    "service.executor_wait_ms",
    "manager.self_ms",
    "draw.enforce_budget_ms",
    "draw.cold_prepare_ms",
    "session.draw_self_ms",
    "sampler.sample_ms",
    "sampler.assemble_ms",
    "alias.draw_many_ms",
    "kernels.ms_per_request",
    UNATTRIBUTED,
)

UPDATE_PARTITION = (
    "update.transport_ms",
    "update.service_ms",
    "update.manager_self_ms",
    "manager.enforce_budget_ms",
    "session.update_self_ms",
    "dynamic.update_ms",
    "dynamic.flush_ms",
    "alias.build_ms",
    "bbst.nbytes_ms",
    UPDATE_UNATTRIBUTED,
)

COUNT_ROWS = (
    "http.reply_kb",
    "service.batch_size_mean",
    "manager.evictions_per_1k",
    "manager.cold_frac",
    "sampler.rounds_per_request",
    "sampler.attempts_per_pair",
    "kernels.calls_per_request",
    "bbst.index_build_s",
    "grid.build_s",
    "sampler.count_s",
    "trace.draw_latency_mean_ms",
    "trace.update_latency_mean_ms",
    "trace.overhead_frac",
)

#: Every per-layer metric a traced run reports, on every workload.
PER_LAYER_NAMES = (
    DRAW_PARTITION
    + UPDATE_PARTITION
    + tuple(f"kernels.{name}_ms" for name in KERNEL_NAMES)
    + COUNT_ROWS
)


def layer_unit(name: str) -> str:
    """The unit of a per-layer row, read off its name."""
    if name.endswith("_ms") or name == "kernels.ms_per_request":
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "KiB"
    if name.endswith("_frac"):
        return "frac"
    return "count"


@dataclass(frozen=True)
class ClientDraw:
    """One traced draw as the client saw it (seed identifies the request)."""

    seed: int
    start: float
    end: float


class SpanTree:
    """Spans indexed by id, parent and name."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.by_id: dict[int, Span] = {}
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_id[span[0]] = span
            if span[1] is not None:
                self.children[span[1]].append(span[0])
            self.by_name[span[2]].append(span)
        for group in self.by_name.values():
            group.sort(key=lambda span: span[3])

    def self_time(self, span_id: int) -> float:
        _sid, _parent, _name, start, end, _attrs = self.by_id[span_id]
        covered = sum(
            self.by_id[child][4] - self.by_id[child][3] for child in self.children[span_id]
        )
        return max(0.0, (end - start) - covered)

    def partition(
        self, span_id: int, rows: dict[str, str], inherited: str
    ) -> Counter[str]:
        """Seconds per row over one span's subtree (self times, see module doc)."""
        out: Counter[str] = Counter()
        stack = [(span_id, inherited)]
        while stack:
            sid, parent_row = stack.pop()
            name = self.by_id[sid][2]
            row = _row_for(name, rows) or parent_row
            if name in COLLAPSED:
                out[row] += self.by_id[sid][4] - self.by_id[sid][3]
                continue
            out[row] += self.self_time(sid)
            stack.extend((child, row) for child in self.children[sid])
        return out

    def descendants(self, span_id: int, stop: frozenset[str] = COLLAPSED) -> list[Span]:
        """Every span below ``span_id``, not descending into ``stop`` spans."""
        found: list[Span] = []
        stack = list(self.children[span_id])
        while stack:
            span = self.by_id[stack.pop()]
            found.append(span)
            if span[2] not in stop:
                stack.extend(self.children[span[0]])
        return found

    def within(self, name: str, start: float, end: float) -> Span | None:
        """The first ``name`` span that lies inside ``[start, end]``."""
        group = self.by_name.get(name, [])
        index = bisect.bisect_left([span[3] for span in group], start)
        for span in group[index:]:
            if span[3] > end:
                break
            if span[4] <= end:
                return span
        return None


def _row_for(name: str, rows: dict[str, str]) -> str | None:
    if name.startswith("kernels."):
        return rows.get("kernels.*")
    return rows.get(name)


def _by_seed(spans: Sequence[Span], key: str) -> dict[int, Span]:
    index: dict[int, Span] = {}
    for span in spans:
        attrs = span[5] or {}
        if key == "seed":
            index[attrs.get("seed")] = span
        else:
            for seed in attrs.get("seeds", ()):
                index[seed] = span
    return index


def draw_rows(
    tree: SpanTree, draws: Sequence[ClientDraw], transport: bool
) -> tuple[dict[str, float], dict[str, float]]:
    """Draw partition (ms per request) and work counts per request."""
    core = _by_seed(tree.by_name["service.draw"], "seed")
    submit = _by_seed(tree.by_name["service.submit"], "seed")
    flush = _by_seed(tree.by_name["service.run_batch"], "seeds")
    handles = _by_seed(tree.by_name["manager.draw_batch"], "seeds")
    replies = _by_seed(tree.by_name["http.result_to_json"], "seed")
    root_row = "http.overhead_ms" if transport else UNATTRIBUTED

    totals: Counter[str] = Counter()
    kernel_ms: Counter[str] = Counter()
    subtrees: dict[int, tuple[Counter[str], Counter[str], bool]] = {}
    linked_batches: set[int] = set()
    cold_requests = 0
    for draw in draws:
        latency = draw.end - draw.start
        reply = replies.get(draw.seed)
        reply_s = reply[4] - reply[3] if reply is not None else 0.0
        totals["http.result_to_json_ms"] += reply_s
        pieces = (core.get(draw.seed), submit.get(draw.seed), flush.get(draw.seed),
                  handles.get(draw.seed))
        if any(piece is None for piece in pieces):
            totals[UNATTRIBUTED] += latency - reply_s
            continue
        core_span, submit_span, flush_span, handle = pieces
        totals[root_row] += latency - (core_span[4] - core_span[3]) - reply_s
        totals["service.admission_wait_ms"] += submit_span[3] - core_span[3]
        totals["service.coalesce_wait_ms"] += flush_span[3] - submit_span[3]
        totals["service.executor_wait_ms"] += handle[3] - flush_span[3]
        totals[UNATTRIBUTED] += core_span[4] - handle[4]
        if handle[0] not in subtrees:
            rows = tree.partition(handle[0], DRAW_ROWS, "manager.self_ms")
            per_kernel: Counter[str] = Counter()
            cold = False
            for span in tree.descendants(handle[0]):
                if span[2].startswith("kernels."):
                    per_kernel[span[2]] += span[4] - span[3]
                cold = cold or span[2] == "sampler.prepare"
            subtrees[handle[0]] = (rows, per_kernel, cold)
        rows, per_kernel, cold = subtrees[handle[0]]
        totals.update(rows)
        kernel_ms.update(per_kernel)
        cold_requests += cold
        linked_batches.add(handle[0])

    count = max(1, len(draws))
    out = {row: totals[row] * 1e3 / count for row in DRAW_PARTITION}
    for name in KERNEL_NAMES:
        out[f"kernels.{name}_ms"] = kernel_ms[f"kernels.{name}"] * 1e3 / count

    kernel_calls = rounds = iterations = pairs = batch_requests = 0
    for handle_id in linked_batches:
        batch_requests += len(tree.by_id[handle_id][5]["seeds"])
        for span in tree.descendants(handle_id):
            kernel_calls += span[2].startswith("kernels.")
            rounds += span[2] == "alias.draw_many"
            if span[2] == "sampler.sample" and span[5]:
                iterations += span[5]["iterations"]
                pairs += span[5]["pairs"]
    first = min((draw.start for draw in draws), default=0.0)
    evictions = sum(
        1 for span in tree.by_name["session.evict"] if span[3] >= first and span[5]["evicted"]
    )
    counts = {
        "service.batch_size_mean": batch_requests / max(1, len(linked_batches)),
        "manager.evictions_per_1k": evictions * 1e3 / count,
        "manager.cold_frac": cold_requests / count,
        "sampler.rounds_per_request": rounds / count,
        "sampler.attempts_per_pair": iterations / max(1, pairs),
        "kernels.calls_per_request": kernel_calls / count,
        "trace.draw_latency_mean_ms": sum(d.end - d.start for d in draws) * 1e3 / count,
    }
    return out, counts


def update_rows(
    tree: SpanTree, updates: Sequence[tuple[float, float]], transport: bool
) -> dict[str, float]:
    """Update partition (ms per update request) and the mean update latency."""
    root_row = "update.transport_ms" if transport else UPDATE_UNATTRIBUTED
    totals: Counter[str] = Counter()
    for start, end in updates:
        core_span = tree.within("service.update", start, end)
        handle = (
            tree.within("manager.update", core_span[3], core_span[4])
            if core_span is not None
            else None
        )
        if core_span is None or handle is None:
            totals[UPDATE_UNATTRIBUTED] += end - start
            continue
        totals[root_row] += (end - start) - (core_span[4] - core_span[3])
        totals["update.service_ms"] += (core_span[4] - core_span[3]) - (handle[4] - handle[3])
        totals.update(tree.partition(handle[0], UPDATE_ROWS, "update.manager_self_ms"))
    count = max(1, len(updates))
    out = {row: totals[row] * 1e3 / count for row in UPDATE_PARTITION}
    out["trace.update_latency_mean_ms"] = sum(e - s for s, e in updates) * 1e3 / count
    return out


def build_rows(tree: SpanTree) -> dict[str, float]:
    """Mean construction costs (seconds) over every build in the run."""
    index_builds = tree.by_name["bbst.index_build"]
    grids = tree.by_name["grid.build"]
    index_self = [
        (span[4] - span[3])
        - sum(
            tree.by_id[child][4] - tree.by_id[child][3]
            for child in tree.children[span[0]]
            if tree.by_id[child][2] == "grid.build"
        )
        for span in index_builds
    ]
    counts = []
    for prepare in tree.by_name["sampler.prepare"]:
        inner = sum(
            span[4] - span[3]
            for span in tree.descendants(prepare[0], stop=frozenset())
            if span[2] == "bbst.index_build"
        )
        counts.append((prepare[4] - prepare[3]) - inner)
    return {
        "bbst.index_build_s": sum(index_self) / max(1, len(index_self)),
        "grid.build_s": sum(span[4] - span[3] for span in grids) / max(1, len(grids)),
        "sampler.count_s": sum(counts) / max(1, len(counts)),
    }


def per_layer_rows(
    spans: Iterable[Span],
    draws: Sequence[ClientDraw],
    updates: Sequence[tuple[float, float]],
    *,
    transport: bool,
    reply_kb: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Every name in :data:`PER_LAYER_NAMES` for one traced run."""
    tree = SpanTree(spans)
    rows, counts = draw_rows(tree, draws, transport)
    rows.update(counts)
    rows.update(update_rows(tree, updates, transport))
    rows.update(build_rows(tree))
    rows["http.reply_kb"] = reply_kb
    rows["trace.overhead_frac"] = overhead_frac
    missing = set(PER_LAYER_NAMES) - set(rows)
    if missing:
        raise KeyError(f"per-layer rows not computed: {sorted(missing)}")
    return {name: rows[name] for name in PER_LAYER_NAMES}
