"""Command-line interface for the aggregated-syntactic-network toolkit.

Subcommands cover the whole pipeline: ``validate`` audits treebank files,
``build``/``export`` construct and serialize per-century networks,
``stats``/``hierarchy``/``powerlaw`` compute per-century reports,
``diachrony`` compares centuries, and ``analyze`` runs everything into one
output bundle with a manifest.  Every subcommand but ``validate`` is a
selection of stages from one table, so ``analyze`` writes exactly the files
of the others.  All outputs are deterministic: rerunning a command with the
same inputs, configuration, and seed writes byte-identical files.

Exit codes: 0 success, 1 domain failure (invalid trees, empty corpus),
2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .corpus import (
    CorpusFormatError,
    CorpusSlice,
    GrammaticalRole,
    MissingPolicy,
    audit_corpus,
    filter_slice,
    load_corpus,
    read_text,
)
from .diachrony import detect_emergent_heads, track
from .hierarchy import (
    HierarchyLevels,
    HierarchyStats,
    hierarchy_levels,
    hierarchy_stats,
    level_csv,
)
from .network import (
    Asn,
    NodeKey,
    aggregate,
    csv_table,
    edge_csv,
    to_dot,
    to_graphml,
)
from .powerlaw import (
    bootstrap_pvalue,
    ccdf_rows,
    fit_power_law,
    lrt,
)
from .stats import NetworkSummary, degree_sequences, summarize

__all__ = ["RunConfig", "UsageError", "build_parser", "main"]

#: Conventions stamped into every artifact so numbers are interpretable
#: without reading the source.
_CONVENTIONS = {
    "paths": "undirected,unweighted,lcc",
    "levels": "forward,min0",
    "level_axis": "inverted",
    "degree_zeros": "dropped_before_fit",
}

_FORMATS = ("csv", "dot", "graphml")
_DEGREES = ("in", "out", "total")


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _option(default, parse, help: str, **flag):
    """A run option, declared once: its default, the parser of its value in a
    config file, and its flag's help text.  ``flag`` holds further
    ``add_argument`` settings (``choices``, ``action``, ``metavar``); a flag
    with no ``action`` parses its value with ``parse`` too.
    """
    return dataclasses.field(
        default=default, metadata={"parse": parse, "help": help, "flag": flag}
    )


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags).

    Every field but ``inputs`` is an option: the config-file key is the field
    name and the flag is ``--`` plus the name with ``-`` for ``_``.
    """

    inputs: tuple[str, ...]
    out: str = _option("out", str, "output directory")
    missing: str = _option(
        MissingPolicy.DROP_ADJACENT_TO_TARGET.value, str, "missing-annotation policy",
        choices=[p.value for p in MissingPolicy],
    )
    seed: int = _option(0, int, "random seed")
    unweighted: bool = _option(
        False, _parse_bool, "solve hierarchy levels on unweighted edges",
        action="store_true",
    )
    degree: str = _option(
        "total", str, "degree variable for power-law fitting", choices=_DEGREES
    )
    replicates: int = _option(1000, int, "bootstrap replicates (>= 100)")
    strict: bool = _option(
        False, _parse_bool, "use the strict 0.1 p-value threshold instead of 0.01",
        action="store_true",
    )
    band: int = _option(10, int, "top band size for emergence detection")
    min_gain: int = _option(5, int, "rank gain required to call a head emergent")
    formats: tuple[str, ...] = _option(
        _FORMATS, _comma_list, "comma-separated export formats (csv,dot,graphml)"
    )
    track: tuple[str, ...] = _option(
        (), _comma_list, "node key to follow in diachrony (repeatable)",
        action="append", metavar="'ROLE lemma'",
    )

    def __post_init__(self) -> None:
        # ``--track`` collects a list; a config file gives a tuple.
        object.__setattr__(self, "track", tuple(self.track))
        try:
            MissingPolicy.from_name(self.missing)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.degree not in _DEGREES:
            raise UsageError(f"degree must be in/out/total, got {self.degree!r}")
        if self.replicates < 100:
            raise UsageError(f"replicates must be >= 100, got {self.replicates}")
        if self.band < 1 or self.min_gain < 0:
            raise UsageError("band must be >= 1 and min-gain >= 0")
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise UsageError(
                    f"unknown format {fmt!r} (choose from {', '.join(_FORMATS)})"
                )
        # Parsed here too, so that a bad key fails before any input is read.
        for text in self.track:
            _parse_node_key(text)

    @property
    def p_threshold(self) -> float:
        return 0.1 if self.strict else 0.01


#: The run options, in flag order: config key -> field.
_OPTIONS = {f.name: f for f in dataclasses.fields(RunConfig) if f.metadata}


def _parse_config_file(path: str) -> dict:
    """Parse ``key = value`` configuration text; unknown keys are rejected."""
    values: dict = {}
    try:
        lines = read_text(Path(path), path).split("\n")
    except CorpusFormatError as exc:
        raise UsageError(str(exc)) from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            allowed = ", ".join(sorted(_OPTIONS))
            raise UsageError(
                f"{path}:{line_no}: unknown config key {key!r} "
                f"(allowed: {allowed})"
            )
        try:
            values[key] = _OPTIONS[key].metadata["parse"](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = _parse_config_file(args.config) if args.config else {}
    for key in _OPTIONS:
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
    return RunConfig(inputs=tuple(args.inputs), **merged)


def _parse_node_key(text: str) -> NodeKey:
    """Parse a 'ROLE lemma' pair as printed in exports ('_' = missing role)."""
    parts = text.split(" ", 1)
    if len(parts) != 2 or not parts[1]:
        raise UsageError(
            f"node keys are written 'ROLE lemma', got {text!r}"
        )
    role_code, lemma = parts
    try:
        role = None if role_code == "_" else GrammaticalRole.from_code(role_code)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return NodeKey(lemma=lemma, role=role)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _meta(cfg: RunConfig, **extra) -> dict:
    return {"seed": cfg.seed, "tool": f"asnkit-{__version__}", **extra}


def _load_filtered(cfg: RunConfig) -> tuple[list[CorpusSlice], list[str]]:
    """Load all inputs, apply the missing policy, and demand a usable corpus."""
    slices = load_corpus(cfg.inputs)
    if not slices:
        raise ValueError("empty corpus: no sentences found")
    kept: list[CorpusSlice] = []
    drop_lines: list[str] = []
    for corpus_slice in slices:
        filtered, dropped = filter_slice(corpus_slice, cfg.missing)
        for decision in dropped:
            drop_lines.append(
                f"century {corpus_slice.century} sentence "
                f"{decision.sentence_id!r}: {decision.reason}"
            )
        if not filtered.trees:
            raise ValueError(f"empty corpus: century {corpus_slice.century} has no "
                             f"sentences left under policy {cfg.missing!r}")
        kept.append(filtered)
    return kept, drop_lines


class _Century:
    """One century's slice and network, with its results computed on demand.

    Each result is computed at most once, and only if a selected stage reads
    it: ``diachrony`` never runs ``summarize``, ``build`` runs nothing but
    the aggregation.
    """

    def __init__(self, cfg: RunConfig, corpus_slice: CorpusSlice) -> None:
        self.cfg = cfg
        self.slice = corpus_slice
        self.century = corpus_slice.century
        self.asn = aggregate(corpus_slice.trees)

    @cached_property
    def summary(self) -> NetworkSummary:
        return summarize(self.asn)

    @cached_property
    def levels(self) -> HierarchyLevels:
        return hierarchy_levels(self.asn, weighted=not self.cfg.unweighted)

    @cached_property
    def hierarchy(self) -> tuple[HierarchyStats | None, str | None]:
        """Hierarchy statistics, or ``None`` and the reason they are undefined."""
        try:
            return hierarchy_stats(self.asn, self.levels), None
        except ValueError as exc:
            return None, str(exc)


# ---------------------------------------------------------------------------
# Stages: each maps the run config and the century records to
# ``{filename: text}``.
# ---------------------------------------------------------------------------


def _networks(
    cfg: RunConfig, records: Sequence[_Century], formats: Sequence[str] | None = None
) -> dict[str, str]:
    """``asn_<c>.<fmt>`` for every format, ``cfg.formats`` by default."""
    writers = {"csv": edge_csv, "dot": to_dot, "graphml": to_graphml}
    files = {}
    for r in records:
        meta = _meta(cfg, century=r.century)
        for fmt in cfg.formats if formats is None else formats:
            files[f"asn_{r.century}.{fmt}"] = writers[fmt](r.asn, metadata=meta)
    return files


def _stats(cfg: RunConfig, records: Sequence[_Century]) -> dict[str, str]:
    files = {}
    for r in records:
        files[f"summary_{r.century}.json"] = _json_text(
            {
                "century": r.century,
                "seed": cfg.seed,
                "conventions": _CONVENTIONS,
                "directed_edge_count": r.asn.edge_count,
                "total_edge_weight": r.asn.total_weight(),
                "summary": dataclasses.asdict(r.summary),
            }
        )
    rows = [(r.century, int(r.slice.trees.depth.max()), r.summary.diameter,
             r.summary.average_path_length) for r in records]
    files["depth_vs_diameter.csv"] = csv_table(
        "century,max_tree_depth,diameter,average_path_length", list(zip(*rows)),
        _meta(cfg),
    )
    return files


def _hierarchy(cfg: RunConfig, records: Sequence[_Century]) -> dict[str, str]:
    files = {}
    for r in records:
        meta = {"seed": cfg.seed, "century": r.century, "weighted": r.levels.weighted}
        files[f"hierarchy_{r.century}.csv"] = level_csv(r.asn, r.levels, metadata=meta)
        payload = {
            **meta,
            "conventions": _CONVENTIONS,
            # Singular systems get minimum-norm levels, which can lift the
            # heads off 0; this records whether that happened.
            "heads_at_0": bool(np.all(r.levels.forward[r.asn.in_weight() == 0] == 0.0)),
        }
        stats, error = r.hierarchy
        if stats is None:
            payload["error"] = error
        else:
            payload.update(dataclasses.asdict(stats), residual=r.levels.residual)
        files[f"hierarchy_stats_{r.century}.json"] = _json_text(payload)
    return files


def _powerlaw_payload(cfg: RunConfig, century: int, asn: Asn):
    """Fit the chosen degree sequence; returns (payload, fit or None, data)."""
    degrees = degree_sequences(asn)[cfg.degree]
    data = [d for d in degrees if d > 0]
    payload: dict = {
        "century": century,
        "seed": cfg.seed,
        "conventions": _CONVENTIONS,
        "variable": f"{cfg.degree}_degree",
        "n": len(data),
        "zeros_dropped": len(degrees) - len(data),
        "threshold": cfg.p_threshold,
    }
    try:
        fit = fit_power_law(data)
    except ValueError as exc:  # DegenerateDataError is a ValueError
        payload["error"] = str(exc)
        return payload, None, data
    try:
        fit = bootstrap_pvalue(fit, data, replicates=cfg.replicates, seed=cfg.seed)
    except RuntimeError as exc:  # too many degenerate replicates
        payload["error"] = str(exc)
        return payload, None, data
    # The fit's seed is ``cfg.seed``, which the payload already holds.
    payload.update(dataclasses.asdict(fit),
                   consistent_with_power_law=fit.p_value > cfg.p_threshold, lrt=[])
    for alternative in ("exponential", "lognormal"):
        try:
            result = lrt(data, fit, alternative)
            payload["lrt"].append(dataclasses.asdict(result))
        except ValueError as exc:
            payload["lrt"].append({"alternative": alternative, "error": str(exc)})
    return payload, fit, data


def _powerlaw(cfg: RunConfig, records: Sequence[_Century]) -> dict[str, str]:
    files = {}
    for r in records:
        payload, fit, data = _powerlaw_payload(cfg, r.century, r.asn)
        files[f"powerlaw_{r.century}.json"] = _json_text(payload)
        if not data:
            continue
        rows = ccdf_rows(data, fit)
        header = "x,empirical_ccdf,fitted_ccdf"
        files[f"ccdf_{r.century}.csv"] = csv_table(
            header,
            [[row[name] for row in rows] for name in header.split(",")],
            _meta(cfg, century=r.century),
        )
    return files


def _diachrony(cfg: RunConfig, records: Sequence[_Century]) -> dict[str, str]:
    files = {}
    levels = [(r.asn, r.levels) for r in records]

    points = [(r.century, None, None) if (s := r.hierarchy[0]) is None
              else (r.century, s.democracy, s.incoherence) for r in records]
    files["phase_space.csv"] = csv_table(
        "century,democracy,incoherence", list(zip(*points)), _meta(cfg)
    )

    events = detect_emergent_heads(levels, band=cfg.band, min_gain=cfg.min_gain)
    files["emergent_heads.json"] = _json_text(
        {
            "seed": cfg.seed,
            "band": cfg.band,
            "min_gain": cfg.min_gain,
            "conventions": _CONVENTIONS,
            "events": [
                {
                    "role": e.key.role_code,
                    "lemma": e.key.lemma,
                    "century": e.century,
                    "prior_rank": e.prior_rank,
                    "new_rank": e.new_rank,
                }
                for e in events
            ],
        }
    )

    keys = [_parse_node_key(text) for text in cfg.track]
    rows = [
        (t.key.role_code, t.key.lemma, p.century, p.present, p.level,
         p.level_rank, p.frequency, p.is_head)
        for t in track(keys, levels)
        for p in t.points
    ]
    files["trajectories.csv"] = csv_table(
        "role,lemma,century,present,forward_level,level_rank,frequency,is_head",
        list(zip(*rows)),
        _meta(cfg),
    )
    return files


#: Subcommand -> (help text, stages).  ``analyze`` runs every stage and adds
#: a manifest of what they wrote.
_COMMANDS = {
    "build": (
        "aggregate per-century networks to CSV edge lists",
        (partial(_networks, formats=("csv",)),),
    ),
    "export": ("serialize per-century networks (csv/dot/graphml)", (_networks,)),
    "stats": ("topology summaries and depth-vs-diameter table", (_stats,)),
    "hierarchy": ("hierarchical levels and hierarchy statistics", (_hierarchy,)),
    "powerlaw": ("degree power-law fits with bootstrap p-values", (_powerlaw,)),
    "diachrony": ("trajectories, emergent heads, phase space", (_diachrony,)),
    "analyze": (
        "full pipeline into one output bundle",
        (_networks, _stats, _hierarchy, _powerlaw, _diachrony),
    ),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: RunConfig) -> int:
    issues = audit_corpus(((Path(p), p) for p in cfg.inputs), cfg.missing,
                          graphml="graphml" in cfg.formats)
    for issue in issues:
        print(issue)
    if issues:
        print(f"FAIL: {len(issues)} issue(s) found")
        return 1
    print(f"OK: {len(cfg.inputs)} file(s) valid")
    return 0


def _run(command: str, cfg: RunConfig) -> int:
    """Run ``command``'s stages over every century and write their files."""
    slices, drop_lines = _load_filtered(cfg)
    records = [_Century(cfg, s) for s in slices]
    out = Path(cfg.out)
    written: list[str] = []
    for stage in _COMMANDS[command][1]:
        for name, text in stage(cfg, records).items():
            _write(out / name, text)
            written.append(name)
            if command != "analyze":
                print(f"wrote {out / name}")
    if command != "analyze":
        return 0

    # The output directory is wherever the manifest sits; recording it would
    # make otherwise-identical bundles differ byte-wise.
    config = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out"}
    manifest = {
        "tool": "asnkit",
        "version": __version__,
        "command": "analyze",
        "config": config,
        "conventions": _CONVENTIONS,
        "centuries": [r.century for r in records],
        "dropped_sentences": drop_lines,
        "files": sorted(written),
    }
    _write(out / "manifest.json", _json_text(manifest))
    print(f"wrote {out / 'manifest.json'} and {len(written)} artifact(s)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asnkit",
        description="Aggregated syntactic networks from dependency treebanks.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("inputs", nargs="+", metavar="TREEBANK",
                        help="treebank file(s)")
    common.add_argument("--config", help="key = value configuration file")
    for name, option in _OPTIONS.items():
        flag = dict(option.metadata["flag"])
        if "action" not in flag:
            flag["type"] = option.metadata["parse"]
        common.add_argument(
            "--" + name.replace("_", "-"), default=None,
            help=option.metadata["help"], **flag,
        )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="audit treebank files for format and tree errors")
    for name, (help_text, _stages) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "validate":
            return cmd_validate(cfg)
        return _run(args.command, cfg)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
