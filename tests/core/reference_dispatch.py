"""The original O(files x segments) dispatch ladders and the broadcast
wake-up, as test oracles.

The schedulers' production dispatchers (per-cloud ready heaps in both
directions; the static baseline: the same heaps behind a file gate)
must pick exactly what these ladders pick, and the slot core's dispatch
step, which asks only the clouds that can act, exactly what asking
every parked slot picks.  They are plain functions over a scheduler,
swapped in for its own by ``tests/core/test_scheduler_equivalence.py``.
"""


def next_ready_reference(sched, cloud_id):
    """The original O(files x segments) decision-ladder dispatcher.

    The executable specification of the upload scheduling policy: the
    ready-heap dispatcher must pick byte-identical blocks, in dynamic
    mode and behind the static baseline's file gate.  Returns the pick
    as ``(state, is_fair)``; the scheduler commits it.
    """
    if sched._is_dead(cloud_id):
        return None

    def fair(state):
        if not state.fair_pending(cloud_id) or not state.cap_room(cloud_id):
            return None
        return state, True

    def extra(state):
        # Over-provisioned blocks go only to clouds that already
        # *finished transferring* their own fair share of this
        # segment (paper §6.2).
        if not state.fair_done(cloud_id):
            return None
        if not state.extras or not state.cap_room(cloud_id):
            return None
        return state, False

    # Phase A: availability-first, files strictly in order.  Every
    # cloud keeps pulling blocks for the earliest file that is not
    # yet *available* (k blocks actually uploaded) — maximal
    # parallel transfer, with fast clouds hedging via extras.
    for file in sched._files:
        for state in sched._file_segments[file.path]:
            sched._dispatch_scans += 1
            if state.available:
                continue
            task = fair(state)
            if task is not None:
                return task
            if sched.over_provision:
                task = extra(state)
                if task is not None:
                    return task
        if not sched.dynamic:
            # Benchmark baseline: finish this file's fair shares
            # before touching the next file (no phase split).
            for state in sched._file_segments[file.path]:
                task = fair(state)
                if task is not None:
                    return task
            if any(
                not s.available or s.any_fair_pending()
                for s in sched._file_segments[file.path]
            ):
                return None
    # Phase B: reliability-second — top up outstanding fair shares.
    for file in sched._files:
        for state in sched._file_segments[file.path]:
            sched._dispatch_scans += 1
            task = fair(state)
            if task is not None:
                return task
    # Over-provision while slower clouds still owe fair shares
    # (stop once the slowest cloud finished its fair share, §6.2).
    if sched.over_provision and sched.dynamic:
        for file in sched._files:
            for state in sched._file_segments[file.path]:
                sched._dispatch_scans += 1
                if not state.fair_outstanding:
                    continue
                task = extra(state)
                if task is not None:
                    return task
    return None


def candidate_index(state, cloud_id):
    """The first block index ``cloud_id`` holds of a download segment
    state that is neither fetched, in flight nor failed there."""
    for index in state.record.blocks_on(cloud_id):
        if index in state.blocks or index in state.inflight:
            continue
        if (index, cloud_id) in state.exhausted:
            continue
        return index
    return None


def free_instant(sched, cloud_id):
    """When ``cloud_id`` can start a fetch: now while fewer fetches run
    on it than it has connections, else the earliest predicted end
    among them."""
    busy = sched._busy[cloud_id]
    if len(busy) < sched.config.connections_per_cloud:
        return sched.sim.now
    return min(busy)


def defer_to_faster_reference(sched, state, cloud_id):
    """The defer verdict read straight from the estimator and the
    fetches in flight: strictly faster connected clouds, neither dead
    nor refused, that finish a block no later than ``cloud_id`` would,
    starting it now, hold at least the blocks the segment is missing.
    "Finish no later", ``free + size/est_f <= now + size/est_c``, is
    evaluated as ``free - now <= size * (1/est_c - 1/est_f)``, the
    float-monotone form the scheduler parks on."""
    needed = (state.k - len(state.blocks) - len(state.inflight)
              + len(state.hedged))
    estimate = sched.estimator.estimate
    mine = estimate(cloud_id, "down")
    size = sched.pipeline.block_size(state.record)
    now = sched.sim.now
    threshold = sched.config.cloud_failure_threshold
    faster_supply = 0
    for index, holder in state.record.locations.items():
        if (holder == cloud_id or holder not in sched.cloud_ids
                or holder in sched._refused):
            continue
        if index in state.blocks or index in state.inflight:
            continue
        if (index, holder) in state.exhausted:
            continue
        if sched._dead.get(holder, 0) >= threshold:
            continue
        rate = estimate(holder, "down")
        if rate > mine and (free_instant(sched, holder) - now
                            <= size * (1 / mine - 1 / rate)):
            faster_supply += 1
    return faster_supply >= needed


def next_request_reference(sched, cloud_id):
    """The original O(files x segments) scan — the executable
    specification the download ready-heap dispatcher must match."""
    if sched._dead.get(cloud_id, 0) >= sched.config.cloud_failure_threshold:
        return None
    for file in sched._files:
        for state in sched._file_segments[file.path]:
            sched._dispatch_scans += 1
            if state.saturated:
                continue
            index = candidate_index(state, cloud_id)
            if index is None:
                continue
            if sched.dynamic and defer_to_faster_reference(
                sched, state, cloud_id
            ):
                continue
            return (state, index)
        if not sched.dynamic:
            # Static baseline: strictly finish this file first.
            if not all(
                s.complete for s in sched._file_segments[file.path]
            ):
                return None
    return None


def dispatch_reference(sched, slots):
    """The broadcast wake-up: every slot parked before the pulse is
    asked, in park order, as a woken worker would ask."""
    if not sched._live:
        return
    for slot in slots:
        task = sched._claim(slot)
        if task is not None:
            slot.proc = sched.sim.start(sched._worker(slot, task))
            slot.proc.add_callback(sched._worker_exit)
