"""Block lanes: the independent blocks of one computation, run on every CPU
the process may use, with results reduced in block order.

A computation split into blocks (the loss blocks of a train step, the grid
chunks of an evaluation) hands ``run_blocks`` a ``work(i, workspace)`` for
block ``i`` and a ``reduce(result)``. The number of lanes is the number of
CPUs the process may run on, capped at the number of blocks. Lane 0 is the
calling thread; every other lane is a thread started and joined inside the
call, so no thread outlives it, and one lane starts none. The lanes take
blocks in order, and each runs its blocks through its own workspace,
``workspace.lane(k)`` (see ``nets.Workspace``). The calling thread runs the
first block of each lane that has no arrays yet, so that its arrays come
from the caller's heap, and reduces each result as soon as the results of
every earlier block have been reduced. So a reduction does the same
arithmetic in the same order for any number of lanes, and every value it
gives is bit-identical to a serial loop's.

Each lane thread runs in a copy of the caller's context, so it keeps the
caller's NumPy error state (``np.errstate`` is a context variable, which a
plain thread does not inherit). An exception raised by a block is raised
when that block's turn to be reduced comes, so the caller sees the one a
serial loop raises: that of the first failing block. No lane takes a new
block once one has failed.
"""

import contextvars
import os
import threading


def cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_blocks(count, work, reduce, workspace):
    """``reduce(work(i, ws))`` for each block ``i`` in ``range(count)``, the
    reductions on the calling thread in block order. ``ws`` is the
    workspace of the lane that runs the block, ``workspace.lane(k)``;
    ``reduce`` None drops the results."""
    if count == 0:
        return
    spaces = [workspace.lane(k) for k in range(min(cpu_count(), count))]
    cond = threading.Condition()
    done = {}  # block -> (raised, result or exception), until reduced
    next_block, stop = 0, False  # stop: a block failed, or the call is ending

    def claim():
        nonlocal next_block
        with cond:
            if stop or next_block == count:
                return None
            next_block += 1
            return next_block - 1

    def run(i, ws):
        nonlocal stop
        try:
            outcome = (False, work(i, ws))
        except BaseException as err:  # raised in block order by the caller
            outcome = (True, err)
        with cond:
            done[i] = outcome
            stop = stop or outcome[0]
            cond.notify()

    def lane(ws):
        while (i := claim()) is not None:
            run(i, ws)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(lane, ws),
                                name=f"qpland-lane-{k}")
               for k, ws in enumerate(spaces[1:], start=1)]
    first = claim()  # lane 0 runs at least one block, whatever the timing
    # the calling thread runs the first block of each new lane, so that the
    # lane's arrays come from the caller's heap (see ``nets.Workspace``)
    for ws in spaces[1:]:
        if ws.is_new() and (i := claim()) is not None:
            run(i, ws)
    for thread in threads:
        thread.start()
    try:
        run(first, spaces[0])
        for i in range(count):
            while i not in done:
                j = claim()
                if j is not None:
                    run(j, spaces[0])
                    continue
                with cond:
                    cond.wait_for(lambda: i in done)
            raised, result = done.pop(i)
            if raised:
                raise result
            if reduce is not None:
                reduce(result)
    finally:
        with cond:
            stop = True
        for thread in threads:
            thread.join()
