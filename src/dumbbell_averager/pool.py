"""``run_tasks``: one pool of processes, one per usable CPU, that runs one
list of tasks.

The caller and P - 1 children, each pinned to its own CPU, take the next
task whenever they are free from one shared pipe of task indices of INDEX
bytes; a write of at most PIPE_BUF bytes is atomic, so each read takes a
whole index.  The list exists before any child forks, so each child reads
the task an index names from its own copy.  Only the caller queues
indices: they wait in order in a backlog, which the caller writes into the
pipe as far as it holds before it takes each task of its own, and it
closes its write end once the backlog is empty.  The children fork once
the caller, holding a task, sees another waiting, and each leaves at the
end of the pipe, as soon as no task is left for it, so its exit overlaps
the tasks still running.  A child sends each index it takes, then its
outcome, over a pipe of its own, which the caller reads between its tasks.
The run ends once each task has an outcome, so a child that dies before it
reports holds no run open.
"""

from __future__ import annotations

import os
import pickle
import select
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Sequence

from .errors import DumbbellError

#: bytes of a queued task index, at most PIPE_BUF (512 or more on POSIX)
INDEX = 4


def _usable_cpus() -> List[int]:
    """The CPUs this process may run on; one where it cannot fork."""
    if not hasattr(os, "fork"):
        return [0]
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus: Sequence[int], pid: int = 0) -> None:
    """Run process ``pid`` (0: the calling one) on ``cpus`` only, where it
    can choose them; a child that has already ended reports through its
    pipe.  Measured on a 2-vCPU host (15 alternating pairs of fresh
    processes), leaving the ladder processes unpinned raised the median
    wall time of every benchmark workload by 18-34%."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(pid, cpus)
        except ProcessLookupError:
            pass


def _portable(exc: Exception) -> Exception:
    """``exc``, or, when it does not survive pickling, an exception of the
    same family (DumbbellError or RuntimeError) with its type name and text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        family = DumbbellError if isinstance(exc, DumbbellError) else RuntimeError
        return family(f"{type(exc).__name__}: {exc}")


def _attempt(run: Callable, task: object) -> object:
    """``run(task)``, or the Exception it raises."""
    try:
        return run(task)
    except Exception as exc:
        return exc


def _fill(put: int, backlog: Deque[int]) -> None:
    """Queue the indices of ``backlog`` at ``put``, in order, until it is
    empty or the pipe is full."""
    while backlog:
        try:
            os.write(put, backlog[0].to_bytes(INDEX, "little"))
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


def _child(tasks: Sequence, run: Callable, queue: int, results: int) -> None:
    """Forked child: run the tasks whose indices it reads from ``queue``
    until it ends, once the caller has closed its write end, sending over
    ``results`` each index before it runs that task and the outcome after;
    leave with os._exit, status 0 only then.
    Once the caller has gone a send fails, so no further task starts."""
    status = 1
    try:
        with os.fdopen(results, "wb") as pipe:
            while True:
                try:  # BlockingIOError also when another process took the index
                    data = os.read(queue, INDEX)
                except BlockingIOError:
                    select.select([queue], [], [])
                    continue
                if not data:
                    status = 0
                    break
                index = int.from_bytes(data, "little")
                _send(pipe, index)
                outcome = _attempt(run, tasks[index])
                _send(pipe, _portable(outcome) if isinstance(outcome, Exception) else outcome)
    finally:
        os._exit(status)


def _receive(fd: int, children: Dict[int, list]) -> list:
    """[(index, outcome)] for the next message a child sent over ``fd`` when
    it is an outcome, [] when it is the index of the task the child took.
    Once the child has ended, that task's outcome is a DumbbellError naming
    its exit status or signal.  A child that ends holding no task the
    caller knows of has left at the end of the pipe when its status is 0
    ([]); otherwise the error is raised, as it may have taken a task."""
    pid, index = children[fd]
    try:
        message = pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
    except EOFError:
        del children[fd]
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        error = DumbbellError(f"task process {pid} {how} without a result")
        if index is None and code:
            raise error
        return [] if index is None else [(index, error)]
    children[fd][1] = message if index is None else None
    return [] if index is None else [(index, message)]


def run_tasks(tasks: Iterable, run: Callable, fork: bool = True) -> list:
    """The outcome of each of ``tasks``, in task order: ``run(task)``
    returns it, and an Exception it raises is the outcome.  A task may be
    any object, equal to another or unhashable: each child reads the tasks
    from its own copy of the list.  Each process starts its tasks in task
    order; with ``fork`` false or one usable CPU nothing forks, and the
    caller runs every task.  A child's exception that cannot be pickled
    comes back as its type name and text; a child that dies is a
    DumbbellError naming its exit status or signal.  Every child is reaped
    before this returns or raises, and killed first when the caller is
    interrupted."""
    tasks = list(tasks)
    cpus, outcomes = _usable_cpus() if fork else [0], {}
    queue, put = os.pipe()
    for fd in (queue, put):
        os.set_blocking(fd, False)
    backlog = deque(range(len(tasks)))
    children: Dict[int, list] = {}  # read end of a child's pipe: [pid, index it runs]
    unforked = cpus[1:]  # a child that dies is not replaced
    try:
        while len(outcomes) < len(tasks):
            if put is not None:
                _fill(put, backlog)
                if not backlog:
                    os.close(put)
                    put = None
            ready = select.select(list(children), [], [], 0)[0]
            done = [outcome for fd in ready for outcome in _receive(fd, children)]
            if not ready:
                try:
                    data = os.read(queue, INDEX)
                except BlockingIOError:  # the children emptied the pipe: refill it
                    continue
                if not data:  # every task is taken, and the children run the rest
                    select.select(list(children), [], [])
                    continue
                index = int.from_bytes(data, "little")
                # the children fork once a task waits for them (the caller
                # alone has read the pipe so far, in order): a forked process
                # pays for each page it first writes, and the caller's own
                # first task (verify's one search) runs sooner
                if unforked and index + 1 < len(tasks):
                    for cpu in unforked:
                        read, write = os.pipe()
                        pid = os.fork()
                        if pid == 0:
                            for fd in (read, put, *children):
                                if fd is not None:
                                    os.close(fd)
                            _child(tasks, run, queue, write)
                        os.close(write)
                        children[read] = [pid, None]
                        _pin([cpu], pid)
                    _pin(cpus[:1])
                    unforked = []
                done = [(index, _attempt(run, tasks[index]))]
            outcomes.update(done)
    except BaseException:
        import signal  # only here: a run that does not fail pays no import

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if put is not None:  # idle children read the end of the queue and leave
            os.close(put)
        for fd, (pid, _) in children.items():
            os.close(fd)
            os.waitpid(pid, 0)
        os.close(queue)
        if len(cpus) > 1:  # the caller was pinned only if it could fork
            _pin(cpus)
    return [outcomes[index] for index in range(len(tasks))]
