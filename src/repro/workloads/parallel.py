"""Parallel campaign runner: fan independent simulation cells over cores.

Every §3.2/§7 experiment decomposes into *cells* — independent
(location, seed, repeat) simulations with no shared state: each cell
builds its own :class:`~repro.simkernel.Simulator`, clouds and rng from
an explicit seed.  That makes campaigns embarrassingly parallel, and —
because every cell's randomness is derived only from its own recorded
seed — bit-reproducible regardless of scheduling: the merged output is
*byte-identical* to serial execution.

Four cell kinds cover the experiment harnesses:

* ``campaign``  — :func:`repro.workloads.measurement.run_campaign`
* ``transfers`` — :func:`repro.workloads.runner.measure_single_transfers`
* ``trial``     — one user cohort of the §7.3 trial
  (:func:`repro.workloads.trial.run_trial` decomposes into these)
* ``call``      — any picklable top-level function (used by the
  benchmark batch library for two-site sync grids)

Scaling machinery (the fleet-size campaigns need all three):

* **shared read-only worker state** — the full cell table crosses into
  each worker exactly once (inherited for free under the ``fork``
  start method; one pickled blob through the pool initializer
  otherwise), so a task submission carries only a tuple of cell
  indices — a few dozen bytes instead of a pickled cell per task;
* **chunked work-stealing** — cells are batched into index chunks to
  amortize pool dispatch, while chunks are claimed dynamically by idle
  workers (the executor's queue), so stragglers do not serialize the
  tail.  Results are still merged in cell-submission order, byte-
  identical to serial whatever the chunk size or worker count;
* **streaming reduction** — pass a :class:`~repro.workloads.reduce.
  Reducer` and each cell folds its record stream into a fixed-size
  state *inside the worker*; only states cross back, and the parent
  merges them in submission order before finalizing.

Results always come back in cell-submission order (ordered merge), so
downstream aggregation never observes completion-order nondeterminism.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import OBS

__all__ = [
    "Cell",
    "campaign_cell",
    "transfers_cell",
    "trial_cell",
    "call_cell",
    "run_cells",
    "default_workers",
    "default_chunk_size",
    "derive_seed",
    "WORKERS_ENV",
]

#: Environment knob for the benchmark suite and CLI: number of worker
#: processes (0 or 1 disables the pool and runs inline).
WORKERS_ENV = "REPRO_CAMPAIGN_WORKERS"

#: Upper bound on automatic chunk sizes — beyond this, batching buys no
#: measurable dispatch amortization but costs work-stealing granularity.
_MAX_AUTO_CHUNK = 64


@dataclass(frozen=True)
class Cell:
    """One independent unit of simulation work.

    ``kind`` selects the runner; ``args``/``kwargs`` are passed through
    verbatim.  Cells must be picklable (they cross process boundaries
    once, as part of the shared worker state), which all campaign
    parameters are.
    """

    kind: str
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    fn: Optional[Callable] = None  # kind == "call" only


def campaign_cell(location: str, sizes: Sequence[int], **kwargs) -> Cell:
    """A :func:`run_campaign` cell (one vantage point, one seed)."""
    return Cell("campaign", (location, list(sizes)), dict(kwargs))


def transfers_cell(location: str, approaches: Sequence[str], size: int,
                   **kwargs) -> Cell:
    """A :func:`measure_single_transfers` cell."""
    return Cell("transfers", (location, list(approaches), size),
                dict(kwargs))


def trial_cell(**kwargs) -> Cell:
    """One user cohort of the §7.3 trial (see ``trial.run_trial``)."""
    return Cell("trial", (), dict(kwargs))


def call_cell(fn: Callable, *args, **kwargs) -> Cell:
    """A cell invoking any picklable top-level callable."""
    return Cell("call", args, kwargs, fn=fn)


def derive_seed(base: int, *coordinates) -> int:
    """Stable per-cell seed from a base and arbitrary coordinates.

    Uses crc32 over the repr (not ``hash()``, which is randomized per
    process for strings) so the same cell gets the same seed in every
    worker, interpreter and run.
    """
    text = repr((base,) + coordinates).encode()
    return zlib.crc32(text) % (2**31)


def default_workers(cells: Optional[int] = None) -> int:
    """Worker count: ``REPRO_CAMPAIGN_WORKERS`` or all cores, capped at
    the number of cells."""
    env = os.environ.get(WORKERS_ENV, "")
    workers = int(env) if env else (os.cpu_count() or 1)
    if cells is not None:
        workers = min(workers, cells)
    return max(workers, 1)


def default_chunk_size(cells: int, workers: int) -> int:
    """Cells per pool task: enough batching to amortize dispatch, at
    least four claimable chunks per worker for work stealing."""
    if cells <= 0 or workers <= 1:
        return max(cells, 1)
    size = math.ceil(cells / (workers * 4))
    return max(1, min(size, _MAX_AUTO_CHUNK))


# -- worker side ----------------------------------------------------------

#: Read-only state shared with pool workers.  Under the ``fork`` start
#: method workers inherit these by COW page sharing — no serialization
#: at all; under ``spawn``/``forkserver`` the pool initializer installs
#: them from one pickled blob per worker.  Either way, per-task
#: submissions carry only ``(indices, collect_traces)``.
_SHARED_CELLS: Optional[List[Cell]] = None
_SHARED_REDUCER = None


def _worker_init(payload: Optional[bytes]) -> None:
    global _SHARED_CELLS, _SHARED_REDUCER
    if payload is not None:
        _SHARED_CELLS, _SHARED_REDUCER = pickle.loads(payload)


def _run_cell(cell: Cell, reducer=None):
    """Execute one cell (top-level so it pickles into worker processes).

    With a reducer, the harness absorbs records into a reducer state as
    they are produced and the state is returned; otherwise the
    materialized result list is returned, exactly as before.
    """
    if cell.kind == "campaign":
        from .measurement import run_campaign

        return run_campaign(*cell.args, reducer=reducer, **cell.kwargs)
    if cell.kind == "transfers":
        from .runner import measure_single_transfers

        return measure_single_transfers(
            *cell.args, reducer=reducer, **cell.kwargs
        )
    if cell.kind == "trial":
        from .trial import _run_trial_shard

        return _run_trial_shard(*cell.args, reducer=reducer, **cell.kwargs)
    if cell.kind == "call":
        result = cell.fn(*cell.args, **cell.kwargs)
        if reducer is None:
            return result
        state = reducer.init()
        for item in result:
            state = reducer.absorb(state, item)
        return state
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def _run_cell_traced(cell: Cell, reducer=None):
    """Execute one cell under a fresh per-process trace buffer.

    Returns ``(result, records, metrics_snapshot)``.  Each cell gets its
    own isolated tracer/metrics pair, so worker processes (and inline
    runs) buffer identically; instrumented call sites stamp spans with
    explicit sim times, so records carry each cell's own virtual clock.
    """
    from repro import obs

    with obs.isolated() as (tracer, metrics):
        result = _run_cell(cell, reducer)
        return result, tracer.drain(), metrics.snapshot()


def _run_chunk(indices: Tuple[int, ...], collect_traces: bool) -> list:
    """Execute a batch of cells from the shared table, in index order."""
    cells = _SHARED_CELLS
    reducer = _SHARED_REDUCER
    run = _run_cell_traced if collect_traces else _run_cell
    return [run(cells[index], reducer) for index in indices]


# -- parent side ----------------------------------------------------------

def _chunk_indices(count: int, chunk_size: int) -> List[Tuple[int, ...]]:
    return [
        tuple(range(start, min(start + chunk_size, count)))
        for start in range(0, count, chunk_size)
    ]


def _cell_users(cell: Cell) -> int:
    """Simulated-user weight of a cell, for progress counters."""
    return int(cell.kwargs.get("n_users", 0)) if cell.kind == "trial" else 0


def run_cells(cells: Sequence[Cell], max_workers: Optional[int] = None,
              chunk_size: Optional[int] = None,
              collect_traces: bool = False,
              reducer=None):
    """Run ``cells`` and return their results in submission order.

    ``max_workers`` defaults to :func:`default_workers`; ``chunk_size``
    (cells batched per pool task) defaults to
    :func:`default_chunk_size`.  With one worker (or one cell)
    everything runs inline in this process — the same code path the
    pool workers execute, so serial and parallel runs produce
    byte-identical results for the same cells, for every chunk size.

    With a ``reducer``, each cell streams its records into a reducer
    state inside the worker; the per-cell states are merged in
    submission order and the single ``reducer.finalize(merged)`` value
    is returned instead of a per-cell result list.

    With ``collect_traces=True`` every cell runs under its own isolated
    tracer/metrics pair and the return value becomes
    ``(results, records, metrics_snapshot)``: per-cell trace buffers
    concatenated in submission order (each prefixed by a ``cell``
    boundary event), plus the per-cell metrics snapshots merged in the
    same order — deterministic regardless of worker scheduling.

    Progress is observable through the PR 4 metrics hub when enabled:
    ``cells_done`` and ``users_simulated`` counters advance as cells
    complete.
    """
    cells = list(cells)
    if not cells:
        return ([], [], None) if collect_traces else []
    workers = default_workers(len(cells)) if max_workers is None else min(
        max(int(max_workers), 1), len(cells)
    )
    if chunk_size is None:
        chunk_size = default_chunk_size(len(cells), workers)
    chunk_size = max(1, int(chunk_size))
    chunks = _chunk_indices(len(cells), chunk_size)

    global _SHARED_CELLS, _SHARED_REDUCER
    # Streaming merge: with a reducer (and no trace collection, which
    # needs per-cell results anyway), per-cell states fold into the
    # merged state in submission order as chunks finish — memory stays
    # one merged state plus the out-of-order completion window, never
    # all per-cell states at once.
    streaming = reducer is not None and not collect_traces
    merged = reducer.init() if streaming else None

    def _note_progress(indices: Tuple[int, ...]) -> None:
        if OBS.enabled:
            OBS.inc("cells_done", value=len(indices))
            users = sum(_cell_users(cells[i]) for i in indices)
            if users:
                OBS.inc("users_simulated", value=users)

    if workers <= 1:
        # Cell at a time, whatever the chunk layout: chunking exists to
        # amortize pool dispatch, which inline runs don't pay.  A
        # one-worker run defaults to a single all-cells chunk, so going
        # through _run_chunk here would materialize every per-cell
        # state before the fold (the memory the streaming path exists
        # to avoid) and hold progress at zero until the very end.
        runner = _run_cell_traced if collect_traces else _run_cell
        if streaming:
            chunk_outs = None
            for index, cell in enumerate(cells):
                merged = reducer.merge(merged, runner(cell, reducer))
                _note_progress((index,))
        else:
            chunk_outs = []
            for indices in chunks:
                out = []
                for index in indices:
                    out.append(runner(cells[index], reducer))
                    _note_progress((index,))
                chunk_outs.append(out)
    else:
        ctx = multiprocessing.get_context()
        if ctx.get_start_method() == "fork":
            # Workers inherit the parent's globals at fork time.
            _SHARED_CELLS, _SHARED_REDUCER = cells, reducer
            initargs = (None,)
        else:  # pragma: no cover - spawn/forkserver platforms
            blob = pickle.dumps((cells, reducer),
                                protocol=pickle.HIGHEST_PROTOCOL)
            initargs = (blob,)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init, initargs=initargs,
            ) as pool:
                futures = {
                    pool.submit(_run_chunk, indices, collect_traces): indices
                    for indices in chunks
                }
                order = {indices: pos for pos, indices
                         in enumerate(chunks)}
                if streaming:
                    # Ordered merge with bounded buffering: chunks that
                    # complete ahead of their turn wait in `ready`;
                    # whenever the next-in-order chunk arrives, it and
                    # any consecutive successors fold in immediately.
                    chunk_outs = None
                    ready: Dict[int, list] = {}
                    next_merge = 0
                    for future in as_completed(futures):
                        indices = futures[future]
                        ready[order[indices]] = future.result()
                        _note_progress(indices)
                        while next_merge in ready:
                            for state in ready.pop(next_merge):
                                merged = reducer.merge(merged, state)
                            next_merge += 1
                else:
                    chunk_outs = [None] * len(chunks)
                    for future in as_completed(futures):
                        indices = futures[future]
                        chunk_outs[order[indices]] = future.result()
                        _note_progress(indices)
        finally:
            _SHARED_CELLS = _SHARED_REDUCER = None

    if streaming:
        return reducer.finalize(merged)

    outs: List[Any] = []
    for chunk in chunk_outs:
        outs.extend(chunk)

    if collect_traces:
        from repro.obs import EventRecord, merge_snapshots

        results: List[Any] = []
        records: List[Any] = []
        snapshots = []
        for index, (result, cell_records, snapshot) in enumerate(outs):
            results.append(result)
            records.append(EventRecord(
                "cell", "runner", 0.0,
                {"index": index, "kind": cells[index].kind},
            ))
            records.extend(cell_records)
            snapshots.append(snapshot)
        if reducer is not None:
            merged = reducer.init()
            for state in results:
                merged = reducer.merge(merged, state)
            results = reducer.finalize(merged)
        return results, records, merge_snapshots(snapshots)

    return outs
