"""Pass/fail tables shared by the verification suites and the CLI."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SubCheck:
    """One timed sub-check; its body reports through expect and info."""

    name: str
    ok: bool = True
    seconds: float = 0.0
    detail: str = ""

    def expect(self, condition: bool, detail: str = ""):
        if not condition:
            self.ok = False
            if detail:
                self.info(detail)

    def info(self, detail: str):
        self.detail = detail if not self.detail else f"{self.detail}; {detail}"

    def human_line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"{self.name:<32} {status}  {self.seconds:8.3f}s"
        if self.detail:
            line += f"  {self.detail}"
        return line

    def machine_line(self) -> str:
        return json.dumps({"check": self.name, "ok": self.ok,
                           "seconds": round(self.seconds, 4),
                           "detail": self.detail})


@dataclass
class ReportTable:
    title: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @contextmanager
    def timed(self, name: str):
        """Run a sub-check body; it reports through the yielded SubCheck."""
        check = SubCheck(name)
        start = time.perf_counter()
        try:
            yield check
        except Exception as exc:  # a crash is a failed sub-check, not a crash
            check.ok = False
            check.detail = f"{type(exc).__name__}: {exc}"
        check.seconds = time.perf_counter() - start
        self.checks.append(check)

    def add_note(self, text: str):
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self, machine: bool = False) -> str:
        if machine:
            lines = [c.machine_line() for c in self.checks]
            lines += [json.dumps({"note": n}) for n in self.notes]
            lines.append(json.dumps({"suite": self.title, "ok": self.ok}))
            return "\n".join(lines)
        lines = [f"== {self.title} =="]
        lines += [c.human_line() for c in self.checks]
        lines += [f"note: {n}" for n in self.notes]
        lines.append(f"=> {'all checks passed' if self.ok else 'FAILURES present'}")
        return "\n".join(lines)

