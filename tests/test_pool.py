"""The task pool: outcomes in any process, batches planned by the caller,
the order of failures, children that die, an interrupted caller and what a
run leaves behind."""

import itertools
import os
import pickle
import signal
import time

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
    outcomes = pool.run_tasks(range(len(jobs)), lambda i: da.epsilon_continuation(**jobs[i]))
    return [pool.settled(outcomes[i]) for i in range(len(jobs))]


def wait_for(path, seconds=30.0):
    """Return once ``path`` exists, or after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def then_once(batch):
    """A ``then`` that plans ``batch`` after the first batch and nothing after that."""
    batches = [list(batch)]
    return lambda outcomes: batches.pop() if batches else []


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
    for task, (pid, _) in sorted(pool.run_tasks(tasks, run).items(), key=lambda item: item[1][1]):
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
        ran = []

        def run(task):
            ran.append(task)
            return task.upper()

        cpus(1)
        outcomes = pool.run_tasks(["a", "b"], run, then_once(["a1", "b1", "b2"]))
        assert ran == ["a", "b", "a1", "b1", "b2"]
        assert outcomes == {task: task.upper() for task in ran}

    def test_nothing_forks_while_no_task_waits_for_another_process(self, cpus, monkeypatch):
        # the caller forks once, holding a task, it sees another queued; each
        # batch here is one task, so no two ever wait at once
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cpus(2)
        then = lambda outcomes: [len(outcomes)] if len(outcomes) < 4 else []
        assert pool.run_tasks([0], lambda task: task, then) == {0: 0, 1: 1, 2: 2, 3: 3}

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_task_of_every_batch_comes_back_once(self, cpus, n):
        def run(task):
            return os.getpid() if task[0] == "first" else task[1] * 3 + task[2]

        cpus(n)
        planned = [("next", i, k) for i in range(20) for k in range(3)]
        outcomes = pool.run_tasks([("first", i) for i in range(20)], run, then_once(planned))
        assert {t: v for t, v in outcomes.items() if t[0] == "next"} == {
            ("next", i, k): 3 * i + k for i in range(20) for k in range(3)
        }
        assert len(outcomes) == 80

    def test_then_runs_in_the_caller_once_per_batch(self, cpus, tmp_path):
        # each call of then is written to a file, so a call in a child would show
        calls, log = [], tmp_path / "then"

        def then(outcomes):
            with log.open("a") as f:
                f.write(f"{os.getpid()}\n")
            calls.append(sorted(outcomes))
            return [len(outcomes) + k for k in range(3)] if len(outcomes) < 9 else []

        cpus(2)
        outcomes = pool.run_tasks(range(3), lambda task: -task, then)
        assert outcomes == {task: -task for task in range(9)}
        assert calls == [[0, 1, 2], list(range(6)), list(range(9))]
        assert log.read_text().split() == [str(os.getpid())] * 3

    def test_one_fork_serves_every_batch(self, cpus, tmp_path, monkeypatch):
        # each task of a batch holds its process until two processes have
        # begun one, so the child forked for the first batch runs one task
        # of each batch
        fork, forks, batch = os.fork, [], [0]
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())

        def run(task):
            (tmp_path / f"{task[0]}-{os.getpid()}").touch()
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob(f"{task[0]}-*"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            return os.getpid()

        def then(outcomes):
            batch[0] += 1
            return [(batch[0], k) for k in range(2)] if batch[0] < 2 else []

        cpus(2)
        outcomes = pool.run_tasks([(0, k) for k in range(2)], run, then)
        assert len(forks) == 1
        pids = [{outcomes[b, k] for k in range(2)} for b in range(2)]
        assert pids[0] == pids[1] and os.getpid() in pids[0] and len(pids[0]) == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_task_longer_than_a_record_is_refused(self, cpus, n):
        def run(task):
            raise AssertionError("ran")

        cpus(n)
        with pytest.raises(ValueError, match="pickles to more than 512 bytes"):
            pool.run_tasks(["first", "x" * pool.RECORD], run)

    @pytest.mark.parametrize("bad", [lambda: None, "x" * pool.RECORD], ids=["unpicklable", "long"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_a_planned_task_that_cannot_be_queued_is_refused(self, cpus, bad, n):
        # nothing of the refused batch runs, and no child outlives the run
        ran = []

        def run(task):
            ran.append(task)
            return task

        cpus(n)
        with pytest.raises(ValueError, match="pickle"):
            pool.run_tasks(["A", "B"], run, then_once(["queued", bad]))
        assert "queued" not in ran

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
        # outcome is sent; the batch ends, and the caller runs the next
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
            outcomes = pool.run_tasks(["A", "B"], run, then_once(["E1", "E2"]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10
        assert isinstance(outcomes["B"], da.DumbbellError)
        assert text in str(outcomes["B"])
        assert {task: outcomes[task] for task in ("A", "E1", "E2")} == {
            "A": "A", "E1": "E1", "E2": "E2"
        }

    def test_one_cpu_starts_a_batch_past_what_the_pipe_holds_in_order(self, cpus):
        cpus(1)
        assert starts_by_process(range(200)) == {os.getpid(): list(range(200))}

    def test_two_cpus_share_a_batch_past_what_the_pipe_holds_in_order(self, cpus):
        # each process takes the tasks in the pipe's order, and the child
        # takes tasks the first 128 records left in the caller's backlog
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
        assert pool.run_tasks(range(20), lambda task: time.sleep(0.002) or -task) == {
            task: -task for task in range(20)
        }
        assert codes == [0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_initial_tasks_past_what_the_pipe_holds_all_run(self, cpus):
        # the pipe holds 128 records; the rest wait in the caller's backlog
        cpus(2)
        before = sorted(os.listdir("/proc/self/fd"))
        assert pool.run_tasks(range(200), lambda task: task * task) == {
            task: task * task for task in range(200)
        }
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_planned_tasks_past_what_the_pipe_holds_all_run(self, cpus):
        # 200 planned tasks overflow the pipe's 128 records; the rest wait in the backlog
        cpus(2)
        before = sorted(os.listdir("/proc/self/fd"))
        planned = [("next", k) for k in range(200)]
        outcomes = pool.run_tasks(["A", "B"], lambda task: task, then_once(planned))
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert outcomes == {task: task for task in ["A", "B", *planned]}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    @pytest.mark.parametrize("end", ["done", "killed", "refused"])
    def test_a_run_leaves_no_descriptor_or_child_behind(self, cpus, tmp_path, end):
        marker = tmp_path / "B-started"

        def run(task):
            if task == "A":  # the caller's task; B runs in the child
                wait_for(marker)
            else:
                marker.touch()
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
            return task

        tasks = ["A", "B"] + (["x" * pool.RECORD] if end == "refused" else [])
        cpus(2)
        before = sorted(os.listdir("/proc/self/fd"))
        if end == "refused":
            with pytest.raises(ValueError, match="pickles to more than 512 bytes"):
                pool.run_tasks(tasks, run)
        else:
            outcomes = pool.run_tasks(tasks, run)
            assert isinstance(outcomes["B"], da.DumbbellError) == (end == "killed")
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
