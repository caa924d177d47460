"""Plain check-report records; the CLI serializes these as JSON."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class ReportItem:
    subject: str
    expected: str
    actual: str
    location: str = ""


@dataclass
class Report:
    check: str
    items: list[ReportItem] = field(default_factory=list)
    checked: int = 0  # number of assertions evaluated (items hold the failures)
    skipped: int = 0  # probes with no usable evidence (e.g. cut-contaminated)

    @property
    def status(self) -> str:
        return "pass" if not self.items else "fail"

    @property
    def passed(self) -> bool:
        return not self.items

    def fail(self, subject: str, expected, actual, location: str = ""):
        self.items.append(ReportItem(subject, str(expected), str(actual), location))

    def tally(self, n: int = 1):
        self.checked += n

    def to_json_dict(self) -> dict:
        return {"check": self.check, "status": self.status,
                "items": [asdict(i) for i in self.items]}
