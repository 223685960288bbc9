"""Engine-lint passes over seeded fixture trees + the real-tree sweep.

Each fixture module plants one violation per diagnostic code at a known
line/column; the tests assert the exact span so pass regressions (or
off-by-one span bugs) surface immediately. The final class sweeps the
actual ``src/repro`` tree with the committed baseline and requires a
clean, fully-used baseline — the same gate CI runs.
"""

import textwrap

import pytest

from repro.analysis.engine_lint import (
    EngineFinding,
    Suppression,
    apply_baseline,
    engine_lint_main,
    lint_paths,
    parse_suppressions,
)
from repro.cli import main as cli_main
from repro.exceptions import LintBaselineError

PURITY_SRC = """\
import numpy as np


def scale(a, b):
    a += b
    a[0] = 1.0
    np.cumsum(a, axis=0, out=a)
    return a


def warm(cache, key):
    tile = cache.lookup(key)
    tile += 1
    fresh = cache.lookup(key)
    fresh = fresh.copy()
    fresh += 1
    return tile + fresh
"""

LOCKS_SRC = """\
import threading


class GridTensorCache:
    def __init__(self):
        self._lock = threading.Lock()
        self.current_bytes = 0
        self._entries = {}

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self.current_bytes += 1

    def evict(self, key):
        del self._entries[key]
        self.current_bytes = 0

    @property
    def size(self):
        return self.current_bytes


class PersistentTier(GridTensorCache):
    def flush(self):
        self.current_bytes = 0
"""

EXC_SRC = """\
def fail(flag):
    if flag:
        raise ValueError("bad flag")
    raise NotImplementedError


def __getattr__(name):
    raise AttributeError(name)
"""

SQLITE_SRC = """\
import sqlite3


def connect(path):
    return sqlite3.connect(path)
"""

STATS_SRC = """\
from dataclasses import dataclass


@dataclass
class ExecutionStats:
    queries: int = 0
    rows_scanned: int = 0
    label: str = ""

    def since(self, prev):
        return ExecutionStats(queries=self.queries - prev.queries)


def bump(stats: ExecutionStats):
    stats.queries += 1
    return stats.rowz
"""


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_lint(root, baseline=()):
    return lint_paths(paths=[root], project_root=root, baseline=baseline)


def spans(report, code):
    return [
        (f.path, f.line, f.col)
        for f in report.findings
        if f.code == code
    ]


# ----------------------------------------------------------------------
# EL1xx tensor purity
# ----------------------------------------------------------------------
class TestTensorPurity:
    @pytest.fixture()
    def report(self, tmp_path):
        write_tree(tmp_path, {"src/repro/engine/purity.py": PURITY_SRC})
        return run_lint(tmp_path)

    def test_el101_augassign_parameter_span(self, report):
        assert spans(report, "EL101") == [
            ("src/repro/engine/purity.py", 5, 5)
        ]
        (finding,) = [f for f in report.findings if f.code == "EL101"]
        assert finding.symbol == "scale"
        assert "'a'" in finding.message

    def test_el102_subscript_store_parameter_span(self, report):
        assert spans(report, "EL102") == [
            ("src/repro/engine/purity.py", 6, 5)
        ]

    def test_el103_out_kwarg_parameter_span(self, report):
        line = PURITY_SRC.splitlines()[6]
        col = line.index("out=a") + len("out=") + 1
        assert spans(report, "EL103") == [
            ("src/repro/engine/purity.py", 7, col)
        ]

    def test_el104_cache_born_mutation_span(self, report):
        assert spans(report, "EL104") == [
            ("src/repro/engine/purity.py", 13, 5)
        ]
        (finding,) = [f for f in report.findings if f.code == "EL104"]
        assert finding.symbol == "warm"

    def test_copy_rebind_kills_the_alias(self, report):
        # ``fresh = fresh.copy()`` on line 15 makes line 16 clean.
        assert all(f.line != 16 for f in report.findings)

    def test_pass_is_scoped_to_tensor_modules(self, tmp_path):
        write_tree(tmp_path, {"src/repro/elsewhere.py": PURITY_SRC})
        report = run_lint(tmp_path)
        assert report.findings == ()


# ----------------------------------------------------------------------
# EL2xx lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    @pytest.fixture()
    def report(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/cachey.py": LOCKS_SRC})
        return run_lint(tmp_path)

    def test_el201_unlocked_cache_writes(self, report):
        # The acceptance scenario: a synthetic GridTensorCache-style
        # class whose guarded attributes are touched outside the lock.
        found = spans(report, "EL201")
        assert ("src/repro/core/cachey.py", 16, 13) in found  # del entries
        assert ("src/repro/core/cachey.py", 17, 9) in found  # bytes reset

    def test_el201_symbols_and_messages(self, report):
        by_line = {f.line: f for f in report.findings if f.code == "EL201"}
        assert by_line[17].symbol == "GridTensorCache.evict"
        assert "self.current_bytes" in by_line[17].message
        assert "self._lock" in by_line[17].message

    def test_el202_unlocked_read(self, report):
        assert spans(report, "EL202") == [
            ("src/repro/core/cachey.py", 21, 16)
        ]
        (finding,) = [f for f in report.findings if f.code == "EL202"]
        assert finding.symbol == "GridTensorCache.size"

    def test_inherited_guard_reaches_subclass(self, report):
        found = spans(report, "EL201")
        assert ("src/repro/core/cachey.py", 26, 9) in found
        sub = [f for f in report.findings if f.line == 26]
        assert sub[0].symbol == "PersistentTier.flush"

    def test_init_is_exempt(self, report):
        assert all(f.line not in (6, 7, 8) for f in report.findings)

    def test_locked_method_is_clean(self, report):
        assert all(f.line not in (12, 13) for f in report.findings)


# ----------------------------------------------------------------------
# EL3xx exception / import policy
# ----------------------------------------------------------------------
class TestExceptionPolicy:
    def test_el301_bare_valueerror_span(self, tmp_path):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        report = run_lint(tmp_path)
        assert spans(report, "EL301") == [("src/repro/oops.py", 3, 9)]
        (finding,) = report.findings
        assert "ValueError" in finding.message

    def test_allowlist_notimplemented_and_getattr(self, tmp_path):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        report = run_lint(tmp_path)
        # lines 4 (NotImplementedError) and 8 (__getattr__) stay clean
        assert [f.line for f in report.findings] == [3]

    def test_repro_exception_classes_are_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/fine.py": """\
                from repro.exceptions import BindError


                def fail(exc):
                    raise exc


                def nope():
                    raise BindError("unbound")
                """
            },
        )
        assert run_lint(tmp_path).findings == ()

    def test_el302_sqlite_outside_engine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/storage.py": SQLITE_SRC,
                "src/repro/engine/io.py": SQLITE_SRC,
            },
        )
        report = run_lint(tmp_path)
        # flagged outside engine/, clean inside it
        assert spans(report, "EL302") == [
            ("src/repro/core/storage.py", 1, 1)
        ]


# ----------------------------------------------------------------------
# EL4xx stats counter drift
# ----------------------------------------------------------------------
class TestStatsDrift:
    @pytest.fixture()
    def report(self, tmp_path):
        write_tree(tmp_path, {"src/repro/statsy.py": STATS_SRC})
        return run_lint(tmp_path)

    def test_el401_undeclared_field_span(self, report):
        line = STATS_SRC.splitlines()[15]
        col = line.index("stats.rowz") + 1
        assert spans(report, "EL401") == [
            ("src/repro/statsy.py", 16, col)
        ]
        (finding,) = [f for f in report.findings if f.code == "EL401"]
        assert "'rowz'" in finding.message and finding.symbol == "bump"

    def test_el402_hand_listed_since_span(self, report):
        assert spans(report, "EL402") == [("src/repro/statsy.py", 10, 5)]
        (finding,) = [f for f in report.findings if f.code == "EL402"]
        assert "rows_scanned" in finding.message
        assert "label" not in finding.message  # non-numeric not required

    def test_declared_field_references_are_clean(self, report):
        # stats.queries on line 15 is declared; only rowz/since flagged.
        assert sorted(f.code for f in report.findings) == [
            "EL401",
            "EL402",
        ]

    def test_fields_iteration_satisfies_el402(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/statsy.py": """\
                from dataclasses import dataclass, fields


                @dataclass
                class SearchStats:
                    cells: int = 0
                    probes: int = 0

                    def since(self, prev):
                        return {
                            f.name: getattr(self, f.name)
                            - getattr(prev, f.name)
                            for f in fields(self)
                        }
                """
            },
        )
        assert run_lint(tmp_path).findings == ()


# ----------------------------------------------------------------------
# Baseline suppressions
# ----------------------------------------------------------------------
class TestBaseline:
    def finding(self, **kwargs):
        base = dict(
            code="EL201",
            message="m",
            path="src/repro/core/cachey.py",
            line=17,
            col=9,
            symbol="GridTensorCache.evict",
        )
        base.update(kwargs)
        return EngineFinding(**base)

    def test_qualname_prefix_matches(self):
        entry = Suppression(
            code="EL201",
            path="src/repro/core/cachey.py",
            symbol="GridTensorCache",
            reason="reviewed",
        )
        assert entry.matches(self.finding())
        assert not entry.matches(self.finding(symbol="OtherClass.evict"))
        assert not entry.matches(self.finding(path="other.py"))

    def test_star_and_empty_symbol_match_whole_file(self):
        for symbol in ("", "*"):
            entry = Suppression(
                code="EL201",
                path="src/repro/core/cachey.py",
                symbol=symbol,
                reason="reviewed",
            )
            assert entry.matches(self.finding())

    def test_apply_baseline_partitions_and_reports_unused(self):
        used = Suppression(
            code="EL201",
            path="src/repro/core/cachey.py",
            symbol="",
            reason="reviewed",
        )
        stale = Suppression(
            code="EL999", path="gone.py", symbol="", reason="stale"
        )
        report = apply_baseline([self.finding()], [used, stale])
        assert report.ok
        assert report.unsuppressed == ()
        assert [entry for _, entry in report.suppressed] == [used]
        assert report.unused == (stale,)
        assert "unused suppression" in report.render()

    def test_missing_reason_is_an_error(self):
        with pytest.raises(LintBaselineError):
            parse_suppressions("EL201 src/repro/core/cachey.py\n")

    def test_comments_and_blanks_are_skipped(self):
        entries = parse_suppressions(
            "# header\n\nEL201 a.py:Klass.meth  why not\n"
        )
        assert len(entries) == 1
        assert entries[0].symbol == "Klass.meth"
        assert entries[0].reason == "why not"


# ----------------------------------------------------------------------
# CLI + gate
# ----------------------------------------------------------------------
class TestCli:
    def test_engine_flag_exits_one_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        code = engine_lint_main([str(tmp_path), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "EL301" in out and "engine lint FAILED" in out

    def test_baseline_file_suppresses_to_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            "EL301 src/repro/oops.py:fail reviewed fixture\n"
        )
        code = engine_lint_main(
            [
                str(tmp_path),
                "--project-root",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 finding(s) suppressed" in out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("EL301 src/repro/oops.py\n")
        code = engine_lint_main(
            [str(tmp_path), "--baseline", str(baseline)]
        )
        assert code == 2
        assert "engine lint error" in capsys.readouterr().err

    def test_main_dispatches_lint_engine(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/oops.py": EXC_SRC})
        code = cli_main(
            ["lint", "--engine", str(tmp_path), "--no-baseline"]
        )
        assert code == 1
        assert "EL301" in capsys.readouterr().out


class TestRealTreeIsClean:
    """The committed gate: src/repro + baseline = zero unsuppressed."""

    def test_sweep_with_committed_baseline(self):
        report = lint_paths()
        assert report.ok, report.render()
        assert report.files_checked > 50

    def test_baseline_has_no_stale_entries(self):
        report = lint_paths()
        assert report.unused == (), [s.render() for s in report.unused]

    def test_every_suppression_carries_a_reason(self):
        report = lint_paths()
        assert report.suppressed  # the reviewed in-place kernels
        for _, entry in report.suppressed:
            assert entry.reason.strip()
