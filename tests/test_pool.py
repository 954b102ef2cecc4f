"""The task pool: outcomes in any process and in task order, the order of
failures, pinning, children that die, an interrupted caller and what a run
leaves behind."""

import itertools
import os
import pickle
import signal
import time
from pathlib import Path

import pytest
from test_shooting import S17, ZERO_LIN, case_torques

import dumbbell_averager as da
from dumbbell_averager import pool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")

T1_SPEC = da.ResonanceSpec(da.Mode.NUTATION_T1, 1, 1)


def zero_ladder():
    """A one-rung ladder of the unperturbed system, which passes at once."""
    return dict(
        rhs_for_eps=da.linearized_system(ZERO_LIN),
        averaged_zero=(0.7, -0.1),
        spec=T1_SPEC,
        eps_list=[0.0],
    )


def ladder_whose_rhs(act):
    """A one-rung ladder whose rhs calls ``act()`` and then is the unperturbed one."""
    return dict(
        zero_ladder(),
        rhs_for_eps=lambda eps: lambda t, s: act() or da.unperturbed_rhs(t, s),
    )


def raising(exc):
    def act():
        raise exc

    return act


def ladders(jobs):
    """``epsilon_continuation(**job)`` of each job, run as the pool's tasks:
    the reports in job order, or the lowest-index job's exception raised."""
    return [pool.settled(outcome) for outcome in pool.run_tasks(
        range(len(jobs)), lambda i: da.epsilon_continuation(**jobs[i]))]


def wait_for(path, seconds=30.0):
    """Return once ``path`` exists, or after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def in_a_child(tmp_path, act):
    """An act for two ladders: the caller keeps the first task, and its rhs
    waits until the other task's rhs, which only a child can run, has begun
    and calls ``act()``."""
    caller, marker = os.getpid(), tmp_path / "child-started"

    def either():
        if os.getpid() == caller:
            wait_for(marker)
        else:
            marker.touch()
            act()

    return either


def starts_by_process(tasks):
    """Run ``tasks``, each of which sleeps about 2 ms, and map each process
    to the tasks it started, in the order it started them."""
    count = itertools.count()  # each forked copy counts on in its own process

    def run(task):
        start = next(count)
        time.sleep(0.002)
        return os.getpid(), start

    starts = {}
    for task, (pid, _) in sorted(zip(tasks, pool.run_tasks(tasks, run)), key=lambda item: item[1][1]):
        starts.setdefault(pid, []).append(task)
    return starts


class ExitWhenSent:
    """An outcome whose pickling ends the process with status 7."""

    def __reduce__(self):
        os._exit(7)


class TestRunTasks:
    """The number of usable CPUs is faked here through os.sched_getaffinity;
    the caller's own pins are recorded in ``self.pins``."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        self.pins = []

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

        pin = lambda pid, cpus: self.pins.append(sorted(cpus))
        monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
        yield use
        # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def wide(self, monkeypatch):
        """Indices of 512 bytes, so that the 64 KiB pipe holds 128 of them."""
        monkeypatch.setattr(pool, "INDEX", 512)

    def test_reports_come_back_in_job_order(self, cpus, monkeypatch):
        f1, f2 = case_torques("corollary2")
        lin = da.extract_linearized(f1, f2)
        damped = lambda eps: lambda t, s: (s[1], -3.0 * s[0] - eps * s[1], s[3], -4.0 * s[2])
        jobs = [
            dict(
                rhs_for_eps=da.linearized_system(lin),
                averaged_zero=(x, 0.0),
                spec=da.BUNDLED_CASES["corollary2"].spec,
                eps_list=[1e-2, 1e-3],
            )
            for x in ((1 - S17) / 4, (1 + S17) / 4)
        ]
        jobs += [dict(zero_ladder(), rhs_for_eps=damped, eps_list=[1e-2, 1e-3]), zero_ladder()]

        def no_rhs(eps):  # the factory itself raises, in whichever process runs it
            raise da.DomainError(f"no rhs at eps = {eps}")

        jobs.append(dict(zero_ladder(), rhs_for_eps=no_rhs))

        def no_fork():
            raise AssertionError("forked")

        cpus(1)
        with monkeypatch.context() as serial:
            serial.setattr(os, "fork", no_fork)
            reports = ladders(jobs)
        assert [r.status for r in reports] == [
            "PASS", "PASS", "COLLAPSED-TO-EQUILIBRIUM", "PASS", "FAILED-AT(0)"
        ]
        assert reports[-1].failure == "DomainError: no rhs at eps = 0.0"
        assert repr(reports) == repr([da.epsilon_continuation(**job) for job in jobs])
        assert self.pins == []
        for n in (2, 3, 8):  # 8 usable CPUs make more processes than jobs
            cpus(n)
            assert repr(ladders(jobs)) == repr(reports)
            # the caller keeps to the first CPU while its children run
            assert self.pins[-2:] == [[0], list(range(n))]

    def test_one_cpu_runs_each_batch_in_order(self, cpus):
        # each call is one batch
        ran = []

        def run(task):
            ran.append(task)
            return task.upper()

        cpus(1)
        outcomes = [pool.run_tasks(batch, run) for batch in (["a", "b"], ["a1", "b1", "b2"])]
        assert ran == ["a", "b", "a1", "b1", "b2"]
        assert outcomes == [["A", "B"], ["A1", "B1", "B2"]]

    def test_nothing_forks_while_no_task_waits_for_another_process(self, cpus, monkeypatch):
        # the caller forks once, holding a task, it sees another queued; each
        # run here is one task, so no two ever wait at once
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cpus(2)
        assert [pool.run_tasks([k], lambda task: task) for k in range(4)] == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_task_comes_back_once(self, cpus, n):
        cpus(n)
        tasks = [(i, k) for i in range(20) for k in range(4)]
        assert pool.run_tasks(tasks, lambda task: task[0] * 4 + task[1]) == list(range(80))

    @pytest.mark.parametrize("n", [1, 2])
    def test_equal_and_unhashable_tasks_come_back_in_task_order(self, cpus, n):
        cpus(n)
        tasks = [[1], [1], [2, 3], [1]]
        assert pool.run_tasks(tasks, lambda task: [*task, len(task)]) == [
            [1, 1], [1, 1], [2, 3, 2], [1, 1]
        ]

    @pytest.mark.parametrize(
        "task", [lambda: "from a lambda", "x" * 512], ids=["unpicklable", "long"]
    )
    def test_a_task_that_does_not_pickle_runs_in_a_child(self, cpus, tmp_path, task):
        # the child reads its task from its own copy of the list, so no task
        # is pickled; A, the caller's, waits until the child has begun B
        caller, marker = os.getpid(), tmp_path / "B-started"

        def run(task):
            if task == "A":
                wait_for(marker)
                return "A"
            marker.touch()
            return os.getpid() != caller, task() if callable(task) else len(task)

        cpus(2)
        expected = "from a lambda" if callable(task) else 512
        assert pool.run_tasks(["A", task], run) == ["A", (True, expected)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_child_is_pinned_from_the_caller_before_the_caller(self, cpus, monkeypatch, n):
        # the caller forks every child, pins each to its own CPU, then pins
        # itself to the first, and takes every CPU back at the end
        fork, children, pinned = os.fork, [], []

        def forked():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", forked)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(
            (pid, sorted(cpus))) or self.pins.append(sorted(cpus)))
        cpus(n)
        assert pool.run_tasks(range(6), lambda task: -task) == [0, -1, -2, -3, -4, -5]
        assert len(children) == n - 1
        assert pinned == [(pid, [cpu]) for cpu, pid in enumerate(children, start=1)] + [
            (0, [0]), (0, list(range(n)))
        ]
        assert self.pins[-2:] == [[0], list(range(n))]

    def test_a_child_gone_before_its_pin_still_reports(self, cpus, monkeypatch):
        # pinning a child that has already ended raises ProcessLookupError;
        # its end is read from its pipe, as for any child that dies
        def gone(pid, cpus):
            if pid:
                raise ProcessLookupError(pid)

        monkeypatch.setattr(os, "sched_setaffinity", gone)
        cpus(2)
        assert pool.run_tasks(range(4), lambda task: task * 2) == [0, 2, 4, 6]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    @pytest.mark.parametrize("n", [2, 3])
    def test_each_run_forks_and_reaps_its_own_children(self, cpus, monkeypatch, n):
        # two tasks wait at the caller's first take, so each run forks
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        cpus(n)
        before = sorted(os.listdir("/proc/self/fd"))
        for run in range(2):
            assert pool.run_tasks(["a", "b"], str.upper) == ["A", "B"]
            assert len(forks) == (run + 1) * (n - 1)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize(
        "failing, expected",
        [
            ({1: LookupError("job 1"), 2: ArithmeticError("job 2")}, LookupError("job 1")),
            ({2: ArithmeticError("job 2"), 3: LookupError("job 3")}, ArithmeticError("job 2")),
            ({0: ArithmeticError("job 0"), 1: LookupError("job 1")}, ArithmeticError("job 0")),
            ({3: LookupError("job 3")}, LookupError("job 3")),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_the_lowest_index_failure_is_raised(self, cpus, failing, expected, n):
        jobs = [
            ladder_whose_rhs(raising(failing[i])) if i in failing else zero_ladder()
            for i in range(4)
        ]
        cpus(n)
        with pytest.raises(type(expected)) as caught:
            ladders(jobs)
        assert caught.type is type(expected)
        assert str(caught.value) == str(expected)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_a_later_refused_ladder_does_not_overtake_an_earlier_failure(self, cpus, n):
        # the serial order raises job 0's error before it reaches job 1's ladder
        jobs = [
            ladder_whose_rhs(raising(ArithmeticError("job 0"))),
            dict(zero_ladder(), eps_list=[]),
        ]
        cpus(n)
        with pytest.raises(ArithmeticError, match="^job 0$"):
            ladders(jobs)

    def test_an_exception_that_cannot_be_pickled_comes_back_as_its_name_and_text(
        self, cpus, tmp_path
    ):
        class LocalError(Exception):
            pass

        cpus(2)
        jobs = [ladder_whose_rhs(in_a_child(tmp_path, raising(LocalError("not by reference"))))] * 2
        with pytest.raises(RuntimeError, match=r"^LocalError: not by reference$"):
            ladders(jobs)

    @pytest.mark.parametrize(
        "end, text",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL:d}"),
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os._exit(0), "exited with status 0"),
        ],
        ids=["killed", "exited", "exited-silently"],
    )
    def test_a_child_that_dies_is_a_dumbbell_error(self, cpus, tmp_path, end, text):
        cpus(2)
        jobs = [ladder_whose_rhs(in_a_child(tmp_path, end))] * 2
        with pytest.raises(da.DumbbellError, match=text):
            ladders(jobs)

    @pytest.mark.parametrize(
        "outcome, text",
        [
            (ExitWhenSent(), "exited with status 7 without a result"),
            (lambda: None, "exited with status 1 without a result"),
        ],
        ids=["dies-when-sent", "unpicklable"],
    )
    def test_a_child_that_dies_before_it_reports_holds_no_run_open(
        self, cpus, tmp_path, outcome, text
    ):
        # B runs in the child (A waits for its marker) and dies before its
        # outcome is sent; the caller runs the tasks after it, and the run ends
        marker = tmp_path / "B-started"

        def run(task):
            if task == "A":
                wait_for(marker)
                time.sleep(0.3)
                return "A"
            if task == "B":
                marker.touch()
                return outcome
            return task

        def hang(signum, frame):
            raise TimeoutError("run_tasks still waits")

        cpus(2)
        previous, started = signal.signal(signal.SIGALRM, hang), time.monotonic()
        signal.alarm(30)
        try:
            outcomes = pool.run_tasks(["A", "B", "E1", "E2"], run)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10
        assert isinstance(outcomes[1], da.DumbbellError)
        assert text in str(outcomes[1])
        assert [outcomes[k] for k in (0, 2, 3)] == ["A", "E1", "E2"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
    def test_a_child_with_no_task_left_leaves_while_the_caller_runs(self, cpus, tmp_path):
        # B, the child's only task, ends at once; no task is left in the
        # pipe, so the child ends (a zombie, until it is reaped) while A,
        # the caller's task, still runs
        marker = tmp_path / "B-pid"

        def run(task):
            if task == "B":
                (tmp_path / "tmp").write_text(str(os.getpid()))
                os.replace(tmp_path / "tmp", marker)
                return task
            wait_for(marker)
            stat, deadline = Path(f"/proc/{marker.read_text()}/stat"), time.monotonic() + 10
            while stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
                if time.monotonic() > deadline:
                    return "the child still runs"
                time.sleep(0.001)
            return "the child has ended"

        cpus(2)
        assert pool.run_tasks(["A", "B"], run) == ["the child has ended", "B"]

    def test_one_cpu_starts_a_batch_past_what_the_pipe_holds_in_order(self, cpus, wide):
        cpus(1)
        assert starts_by_process(range(200)) == {os.getpid(): list(range(200))}

    def test_two_cpus_share_a_batch_past_what_the_pipe_holds_in_order(self, cpus, wide):
        # each process takes the tasks in the pipe's order, and the child
        # takes tasks the first 128 indices left in the caller's backlog
        cpus(2)
        starts = starts_by_process(range(200))
        assert len(starts) == 2 and sorted(sum(starts.values(), [])) == list(range(200))
        assert all(tasks == sorted(tasks) for tasks in starts.values())
        (child,) = [tasks for pid, tasks in starts.items() if pid != os.getpid()]
        assert max(child) >= 128

    def test_a_clean_run_reaps_every_child_with_status_0(self, cpus, monkeypatch):
        # the children leave at the end of the queue, once the caller closes it
        waitpid, codes = os.waitpid, []

        def reap(pid, options):
            reaped = waitpid(pid, options)
            codes.append(os.waitstatus_to_exitcode(reaped[1]))
            return reaped

        monkeypatch.setattr(os, "waitpid", reap)
        cpus(2)
        assert pool.run_tasks(range(20), lambda task: time.sleep(0.002) or -task) == [
            -task for task in range(20)
        ]
        assert codes == [0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_initial_tasks_past_what_the_pipe_holds_all_run(self, cpus, wide):
        # the pipe holds 128 indices; the rest wait in the caller's backlog
        cpus(2)
        before = sorted(os.listdir("/proc/self/fd"))
        assert pool.run_tasks(range(200), lambda task: task * task) == [
            task * task for task in range(200)
        ]
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    @pytest.mark.parametrize("end", ["done", "killed", "interrupted"])
    def test_a_run_leaves_no_descriptor_or_child_behind(self, cpus, tmp_path, end):
        marker = tmp_path / "B-started"

        def run(task):
            if task == "A":  # the caller's task; B runs in the child
                wait_for(marker)
                if end == "interrupted":
                    raise KeyboardInterrupt
            else:
                marker.touch()
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if end == "interrupted":
                    time.sleep(60)
            return task

        cpus(2)
        before = sorted(os.listdir("/proc/self/fd"))
        if end == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                pool.run_tasks(["A", "B"], run)
        else:
            outcomes = pool.run_tasks(["A", "B"], run)
            assert isinstance(outcomes[1], da.DumbbellError) == (end == "killed")
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupted_caller_kills_its_child(self, cpus, tmp_path):
        caller, marker = os.getpid(), tmp_path / "child-started"

        def stop_caller_or_hang_child():
            if os.getpid() == caller:
                wait_for(marker)
                raise KeyboardInterrupt
            marker.touch()
            time.sleep(60)
            os._exit(0)

        cpus(2)
        jobs = [ladder_whose_rhs(stop_caller_or_hang_child)] * 2
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ladders(jobs)
        assert time.monotonic() - started < 30
