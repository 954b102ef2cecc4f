"""``run_tasks``: one pool of processes, one per usable CPU, that runs
batches of tasks, each planned in the caller from the outcomes before it.

The caller and P - 1 children, each pinned to its own CPU, take the next
task whenever they are free from one shared pipe of pickled records of
RECORD bytes; a write of at most PIPE_BUF bytes is atomic, so each read
takes a whole record.  Only the caller queues tasks there: a batch's
records wait in order in a backlog, which the caller writes into the pipe
as far as it holds before it takes each task of its own.  The children
fork once the caller, holding a task, sees another waiting; they serve
every later batch, and leave at the end of the pipe, once the caller has
closed its write end.  A child sends each task it takes, then its outcome,
over a pipe of its own, which the caller reads between its tasks.  A batch
ends once each of its tasks has an outcome, so a child that dies before it
reports holds no run open; the caller then plans the next batch, and the
run ends with an empty one.
"""

from __future__ import annotations

import os
import pickle
import select
from collections import deque
from typing import Callable, Deque, Dict, Hashable, Iterable, List, Sequence

from .errors import DumbbellError

#: bytes of a queued task's record, at most PIPE_BUF (512 or more on POSIX)
RECORD = 512


def _usable_cpus() -> List[int]:
    """The CPUs this process may run on; one where it cannot fork."""
    if not hasattr(os, "fork"):
        return [0]
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus: Sequence[int]) -> None:
    """Run the calling process on ``cpus`` only, where it can choose them.
    Measured on a 2-vCPU host (15 alternating pairs of fresh processes),
    leaving the ladder processes unpinned raised the median wall time of
    every benchmark workload by 18-34%."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def _portable(exc: Exception) -> Exception:
    """``exc``, or, when it does not survive pickling, an exception of the
    same family (DumbbellError or RuntimeError) with its type name and text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        family = DumbbellError if isinstance(exc, DumbbellError) else RuntimeError
        return family(f"{type(exc).__name__}: {exc}")


def _record(task: Hashable) -> bytes:
    """``task``'s queue record, its pickle padded to RECORD bytes;
    ValueError when it does not pickle or the pickle is longer."""
    try:
        record = pickle.dumps(task)
    except Exception as exc:
        raise ValueError(f"task {task!r} does not pickle: {exc}") from None
    if len(record) > RECORD:
        raise ValueError(f"task {task!r} pickles to more than {RECORD} bytes")
    return record.ljust(RECORD, b"\0")


def _attempt(run: Callable, task: Hashable) -> object:
    """``run(task)``, or the Exception it raises."""
    try:
        return run(task)
    except Exception as exc:
        return exc


def _fill(put: int, backlog: Deque[bytes]) -> None:
    """Queue the records of ``backlog`` at ``put``, in order, until it is
    empty or the pipe is full."""
    while backlog:
        try:
            os.write(put, backlog[0])
        except BlockingIOError:
            return
        backlog.popleft()


def settled(outcome: object) -> object:
    """A task's outcome from ``run_tasks``, raised when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _read(fd: int, size: int) -> bytearray:
    """Exactly ``size`` bytes from ``fd``; EOFError if it ends first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _send(pipe, message: object) -> None:
    """Write ``message`` to ``pipe`` pickled behind its length."""
    data = pickle.dumps(message)
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _child(run: Callable, queue: int, results: int, cpu: int) -> None:
    """Forked child: on ``cpu``, run tasks from ``queue`` until it ends, once
    the caller has closed its write end, sending over ``results`` each task
    before it runs it and its outcome after; leave with os._exit, status 0
    only then.
    Once the caller has gone a send fails, so no further task starts."""
    status = 1
    try:
        _pin([cpu])
        with os.fdopen(results, "wb") as pipe:
            while True:
                try:  # BlockingIOError also when another process took the record
                    record = os.read(queue, RECORD)
                except BlockingIOError:
                    select.select([queue], [], [])
                    continue
                if not record:
                    status = 0
                    break
                task = pickle.loads(record)
                _send(pipe, task)
                outcome = _attempt(run, task)
                _send(pipe, _portable(outcome) if isinstance(outcome, Exception) else outcome)
    finally:
        os._exit(status)


def _receive(fd: int, children: Dict[int, list]) -> list:
    """[(task, outcome)] for the next message a child sent over ``fd`` when
    it is an outcome, [] when it names the task the child took.  Once the
    child has ended, that task's outcome is a DumbbellError naming its exit
    status or signal; the error is raised when the child had taken no task
    the caller knows of, as it may have taken one from the pipe."""
    pid, task = children[fd]
    try:
        message = pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
    except EOFError:
        del children[fd]
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        error = DumbbellError(f"task process {pid} {how} without a result")
        if task is None:
            raise error
        return [(task, error)]
    children[fd][1] = message if task is None else None
    return [] if task is None else [(task, message)]


def run_tasks(
    tasks: Iterable[Hashable], run: Callable, then: Callable = lambda outcomes: (),
    fork: bool = True,
) -> Dict[Hashable, object]:
    """Run each of ``tasks`` as the first batch, and map every task run to
    its outcome: ``run(task)`` returns it, and an Exception it raises is the
    outcome.  Once every task queued has an outcome, the caller calls
    ``then(outcomes)`` and queues the batch it returns; the run ends with an
    empty batch.  Tasks are distinct across batches, hashable and picklable
    to at most RECORD bytes (ValueError before their batch is queued), and
    none is None.  Each process starts its tasks first in, first out; with
    ``fork`` false or one usable CPU nothing forks, and the caller runs
    every task.  A child's exception that cannot be pickled comes back as
    its type name and text; a child that dies is a DumbbellError naming its
    exit status or signal.  Every child is reaped before this returns or
    raises, and killed first when the caller is interrupted."""
    cpus, outcomes = _usable_cpus() if fork else [0], {}
    queue, put = os.pipe()
    for fd in (queue, put):
        os.set_blocking(fd, False)
    children: Dict[int, list] = {}  # read end of a child's pipe: [pid, task it runs]
    unforked = cpus[1:]  # a child that dies is not replaced
    try:
        batch = list(tasks)
        while batch:
            backlog, waiting = deque([_record(task) for task in batch]), set(batch)
            while not waiting <= outcomes.keys():
                _fill(put, backlog)
                ready = select.select(list(children), [], [], 0)[0]
                done = [outcome for fd in ready for outcome in _receive(fd, children)]
                if not ready:
                    try:
                        task = pickle.loads(os.read(queue, RECORD))
                    except BlockingIOError:
                        select.select([queue, *children], [], [])
                        continue
                    # the children fork once a task waits for them: a forked
                    # process pays for each page it first writes, and the
                    # caller's own first task (verify's one search) runs sooner
                    if unforked and select.select([queue], [], [], 0)[0]:
                        _pin(cpus[:1])
                        for cpu in unforked:
                            read, write = os.pipe()
                            pid = os.fork()
                            if pid == 0:
                                for fd in (read, put, *children):
                                    os.close(fd)
                                _child(run, queue, write, cpu)
                            os.close(write)
                            children[read] = [pid, None]
                        unforked = []
                    done = [(task, _attempt(run, task))]
                outcomes.update(done)
            batch = list(then(outcomes))
    except BaseException:
        import signal  # only here: a run that does not fail pays no import

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(put)  # idle children read the end of the queue and leave
        for fd, (pid, _) in children.items():
            os.close(fd)
            os.waitpid(pid, 0)
        os.close(queue)
        if len(cpus) > 1:  # the caller was pinned only if it could fork
            _pin(cpus)
    return outcomes
