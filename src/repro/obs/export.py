"""Zero-dependency metric exposition: Prometheus text and JSON.

``to_prometheus_text`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
(or one of its snapshots) in the Prometheus text exposition format —
``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
series.  ``to_json_text`` is the same data as the snapshot JSON.  ``write_metrics`` picks the format from the file
extension and writes atomically.

``parse_prometheus_text`` is the deliberately minimal inverse — enough
to assert in tests and CI that an emitted file is well-formed and that
expected series are present; it is not a general Prometheus client.

>>> from repro.obs.metrics import MetricsRegistry
>>> reg = MetricsRegistry()
>>> c = reg.counter("jobs_total", "Jobs resolved.", ("status",))
>>> c.labels("cached").inc(3)
>>> print(to_prometheus_text(reg))
# HELP jobs_total Jobs resolved.
# TYPE jobs_total counter
jobs_total{status="cached"} 3
<BLANKLINE>
>>> parse_prometheus_text(to_prometheus_text(reg))
{'jobs_total': {(('status', 'cached'),): 3.0}}
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Tuple, Union

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "to_prometheus_text",
    "to_json_text",
    "write_metrics",
    "parse_prometheus_text",
    "atomic_write_text",
]


def atomic_write_text(
    path, text: str, prefix: str = ".obs-", fsync: bool = True
) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file
    ``<prefix>….tmp``: write, flush, ``fsync``, then ``os.replace``,
    creating the directory only when the temp file finds it missing.
    A reader sees the old file or the complete new one, never a torn
    one, and a write that raises leaves no temp file.

    Span files, metrics files and the store's compacted logs
    (``stats.log``, ``cohorts/index``) are fsynced, so a crash leaves
    them whole too.  Result-store entries pass
    ``fsync=False``: each carries its own checksum, a crash can leave
    it torn or empty, and a torn entry reads as a miss (see
    :mod:`repro.campaign.store`)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt_value(value: float) -> str:
    """Prometheus-style number: integers without the trailing ``.0``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(names: List[str], values: List[str]) -> str:
    parts = [
        f'{n}="{_escape(str(v))}"' for n, v in zip(names, values)
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def _snapshot_of(source: Union[MetricsRegistry, Dict]) -> Dict:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def to_prometheus_text(source: Union[MetricsRegistry, Dict]) -> str:
    """Render a registry or snapshot in the Prometheus text format."""
    snap = _snapshot_of(source)
    lines: List[str] = []
    for rec in snap.get("counters", ()):
        name = rec["name"]
        if rec.get("help"):
            lines.append(f"# HELP {name} {rec['help']}")
        lines.append(f"# TYPE {name} counter")
        names = rec.get("label_names", [])
        for lv, value in rec.get("samples", ()):
            lines.append(f"{name}{_label_str(names, lv)} {_fmt_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json_text(source: Union[MetricsRegistry, Dict], indent: int = 2) -> str:
    """The snapshot as pretty JSON."""
    return json.dumps(_snapshot_of(source), indent=indent) + "\n"


def write_metrics(path: str, source: Union[MetricsRegistry, Dict]) -> str:
    """Write an exposition file atomically: JSON when ``path`` ends in
    ``.json``, Prometheus text otherwise.  Returns the format used."""
    if str(path).endswith(".json"):
        atomic_write_text(path, to_json_text(source))
        return "json"
    atomic_write_text(path, to_prometheus_text(source))
    return "prom"


def _parse_labels(text: str) -> Tuple[Tuple[str, str], ...]:
    """``a="x",b="y"`` -> (("a","x"), ("b","y")) with escapes undone."""
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value at {text[eq:]!r}")
        j = eq + 2
        out: List[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                j += 1
                nxt = text[j]
                out.append({"n": "\n"}.get(nxt, nxt))
            else:
                out.append(ch)
            j += 1
        labels.append((name, "".join(out)))
        i = j + 1
    return tuple(labels)


def parse_prometheus_text(text: str) -> Dict[str, Dict[tuple, float]]:
    """Parse the text exposition format back into
    ``{series name: {label pairs: value}}``.

    Comments (``# HELP`` / ``# TYPE``) are validated for shape and
    skipped; every sample line must parse or :class:`ValueError` is
    raised — CI uses this as the "file is well-formed" check.
    """
    series: Dict[str, Dict[tuple, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {raw!r}")
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = _parse_labels(label_text)
        else:
            name, value_text = line.split(None, 1)
            labels = ()
        series.setdefault(name.strip(), {})[labels] = float(value_text)
    return series
