"""Structured store verification: the ``verify()`` report types.

Every :class:`~repro.core.access.IntervalStore` backend can be asked to
check its own structural invariants -- B+-tree key order and fill factors
on the simulated engine, ``PRAGMA integrity_check`` and the Figure 2
covering indexes on sqlite, fork-node consistency and the reserved
Section 4.6 rows on both.  The result is not a bare boolean but a
:class:`VerificationReport`: which checks ran, and every
:class:`VerificationIssue` they found, so a failing store names *all* of
its problems at once (crash-recovery tests diff the full report, not a
single flag).
"""

from __future__ import annotations

from typing import Optional

from .temporal import FORK_INF, FORK_NOW, UPPER_INF, UPPER_NOW


class VerificationIssue:
    """One violated invariant found by a store's ``verify()``.

    Attributes
    ----------
    code:
        Stable machine-readable identifier (e.g. ``"fork-node-mismatch"``).
    message:
        Human-readable description of the violation.
    context:
        Optional structured payload pinning the violation to a row, node
        or index (e.g. ``{"index": "lowerIndex", "rowid": 17}``).
    """

    __slots__ = ("code", "message", "context")

    def __init__(self, code: str, message: str, context: Optional[dict] = None) -> None:
        self.code = code
        self.message = message
        self.context = dict(context) if context else {}

    def as_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        return {"code": self.code, "message": self.message, "context": self.context}

    def __repr__(self) -> str:
        return f"VerificationIssue({self.code!r}, {self.message!r})"


class VerificationReport:
    """The outcome of one ``verify()`` pass over a store.

    Truthiness is :attr:`ok` -- ``if store.verify():`` reads naturally --
    but the report also records *which* checks ran (:attr:`checks`), so a
    clean report over zero checks cannot be mistaken for a thorough one.
    """

    __slots__ = ("store", "backend", "checks", "issues")

    def __init__(self, store: str, backend: str) -> None:
        self.store = store
        self.backend = backend
        self.checks: list[str] = []
        self.issues: list[VerificationIssue] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_check(self, name: str) -> None:
        """Record that the named invariant class was examined."""
        if name not in self.checks:
            self.checks.append(name)

    def add_issue(
        self, code: str, message: str, context: Optional[dict] = None
    ) -> None:
        """Record one violation."""
        self.issues.append(VerificationIssue(code, message, context))

    # ------------------------------------------------------------------
    # outcome
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when every executed check passed."""
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def raise_for_issues(self) -> None:
        """Raise ``AssertionError`` describing every issue (test helper)."""
        if self.issues:
            detail = "; ".join(
                f"[{issue.code}] {issue.message}" for issue in self.issues
            )
            raise AssertionError(
                f"store {self.store!r} ({self.backend}) failed "
                f"verification: {detail}"
            )

    def as_dict(self) -> dict:
        """Plain-dict form for JSON reports (bench / CI artifacts)."""
        return {
            "store": self.store,
            "backend": self.backend,
            "ok": self.ok,
            "checks": list(self.checks),
            "issues": [issue.as_dict() for issue in self.issues],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        """Rebuild a report from its :meth:`as_dict` form."""
        report = cls(store=data["store"], backend=data["backend"])
        report.checks = list(data["checks"])
        report.issues = [
            VerificationIssue(issue["code"], issue["message"], issue.get("context"))
            for issue in data["issues"]]
        return report

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        return (
            f"VerificationReport({self.store!r}, {self.backend!r}, "
            f"checks={len(self.checks)}, {status})"
        )


def verify_engine_tree(report: VerificationReport, tree, label: str) -> None:
    """Fold one simulated-engine B+-tree's violations into a report."""
    report.add_check(f"bptree:{label}")
    for problem in tree.violations():
        report.add_issue("bptree-invariant", problem, {"index": label})


def verify_row(
    report: VerificationReport,
    backbone,
    now: int,
    node: int,
    lower: int,
    upper: int,
    label: str,
    context: dict,
) -> None:
    """Per-row validator of both RI-tree backends (engine and sqlite).

    A reserved Section 4.6 row stores its sentinel upper, and a
    now-relative one starts no later than the clock ``now``; an
    ordinary row stores no sentinel and sits at its Figure 6 fork node
    on ``backbone``.  ``label`` names the row in messages (``"row 17"``)
    and ``context`` pins it (``{"rowid": 17}``).  An empty backbone
    skips the fork-node check: the caller reports the missing offset.
    """
    if node == FORK_INF or node == FORK_NOW:
        kind, sentinel = ("INF", UPPER_INF) if node == FORK_INF else ("NOW", UPPER_NOW)
        if upper != sentinel:
            report.add_issue(
                "reserved-row-upper",
                f"{label} at FORK_{kind} stores upper {upper}, "
                f"expected the UPPER_{kind} sentinel",
                context,
            )
        if node == FORK_NOW and lower > now:
            report.add_issue(
                "now-row-after-clock",
                f"now-relative {label} starts at {lower}, after now={now}",
                context,
            )
        return
    if upper == UPPER_INF or upper == UPPER_NOW:
        report.add_issue(
            "sentinel-on-regular-node",
            f"{label} at ordinary node {node} stores a reserved sentinel "
            "upper bound",
            context,
        )
        return
    if backbone.is_empty:
        return
    try:
        expected = backbone.fork_node(lower, upper)
    except ValueError as exc:
        report.add_issue("fork-node-unreachable", f"{label}: {exc}", context)
        return
    if node != expected:
        report.add_issue(
            "fork-node-mismatch",
            f"{label} stored at node {node}, Figure 6 computes {expected} "
            f"for ({lower}, {upper})",
            {**context, "node": node, "expected": expected},
        )
