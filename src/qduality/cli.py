"""Command-line front end: simulation, data ingestion, and CSV emission.

Counts files are CSV with header ``theta1_rad,theta2_rad,phi_rad,n_pp,
n_pm,n_mp,n_mm``, decimal radians, UTF-8, LF line endings, '#' comments.
Exit codes: 0 success (or feasible), 1 usage error, 2 I/O or parse error,
3 declared infeasible (hvcheck only).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import circuit, fock, hv

COUNTS_HEADER = "theta1_rad,theta2_rad,phi_rad,n_pp,n_pm,n_mp,n_mm"
SURFACE_HEADER = "theta2_rad,phi_rad,E"
DIP_HEADER = "position_mm,coincidence_probability"
ANALYZE_HEADER = "theta1_rad,theta2_rad,phi_rad,E,sigma,total"
SETTINGS_HEADER = "theta2_rad,phi_rad"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class CoincidenceRecord:
    """One measurement setting with its four coincidence counts."""

    theta1: float
    theta2: float
    phi: float
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        for name in ("theta1", "theta2", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


@dataclass(frozen=True)
class CorrelationResult:
    E: float
    sigma: float
    total: int


_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(?:\.\d+)?)?(?P<pi>pi)?(?:/(?P<den>\d+(?:\.\d+)?))?$"
)


def parse_angle(text: str) -> float:
    """Parse 'pi'-expression shorthand: '3pi/2', '-pi/4', '0.5', '1/3'."""
    stripped = text.strip().replace(" ", "")
    match = _ANGLE_RE.match(stripped)
    if not match or (match.group("num") is None and match.group("pi") is None):
        raise ValueError(f"cannot parse angle {text!r}")
    value = float(match.group("num")) if match.group("num") else 1.0
    if match.group("pi"):
        value *= math.pi
    if match.group("den"):
        den = float(match.group("den"))
        if den == 0.0:
            raise ValueError(f"cannot parse angle {text!r}: zero denominator")
        value /= den
    if match.group("sign") == "-":
        value = -value
    return value


def _data_lines(path):
    """Yield (line_number, line) skipping blanks, comments and the header."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if lineno == 1 or line.replace(" ", "").startswith("theta"):
                if line.replace(" ", "") in (COUNTS_HEADER, SETTINGS_HEADER):
                    continue
            yield lineno, line


def ingest_counts(path) -> list:
    """Read coincidence records from a counts CSV."""
    records = []
    for lineno, line in _data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 7:
            raise ParseError(path, lineno, f"expected 7 columns, got {len(fields)}")
        try:
            angles = [float(f) for f in fields[:3]]
            counts = [int(f) for f in fields[3:]]
            records.append(CoincidenceRecord(*angles, *counts))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    return records


def emit_counts(records, stream) -> None:
    stream.write(COUNTS_HEADER + "\n")
    for r in records:
        stream.write(
            f"{r.theta1!r},{r.theta2!r},{r.phi!r},{r.n_pp},{r.n_pm},{r.n_mp},{r.n_mm}\n"
        )


def correlation_with_error(record: CoincidenceRecord) -> CorrelationResult:
    """E from counts plus the multinomial error bar sqrt((1-E^2)/N)."""
    total = record.total
    if total < 1:
        raise ValueError("cannot analyze a record with zero total counts")
    e = (record.n_pp - record.n_pm - record.n_mp + record.n_mm) / total
    sigma = math.sqrt(max(0.0, 1.0 - e * e) / total)
    return CorrelationResult(E=e, sigma=sigma, total=total)


def chsh_from_records(records) -> tuple:
    """(S, sigma_S) from four records covering two angles per side.

    The sign pattern is |E(t1,t2) + E(t1,t2') - E(t1',t2) + E(t1',t2')|
    with t1 < t1' and t2 < t2'; sigma_S is the quadrature sum.
    """
    if len(records) != 4:
        raise ValueError(f"expected exactly 4 records, got {len(records)}")
    theta1s = sorted({r.theta1 for r in records})
    theta2s = sorted({r.theta2 for r in records})
    if len(theta1s) != 2 or len(theta2s) != 2:
        raise ValueError("records must cover two theta1 and two theta2 values")
    table = {}
    for r in records:
        key = (theta1s.index(r.theta1), theta2s.index(r.theta2))
        if key in table:
            raise ValueError(f"duplicate setting (theta1={r.theta1}, theta2={r.theta2})")
        table[key] = correlation_with_error(r)
    if len(table) != 4:
        raise ValueError("records must cover each setting combination exactly once")
    s = abs(
        table[(0, 0)].E + table[(0, 1)].E - table[(1, 0)].E + table[(1, 1)].E
    )
    sigma = math.sqrt(sum(res.sigma**2 for res in table.values()))
    return s, sigma


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out_path, text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads '-0.5' as a value but '-pi/4' or '-3pi/2' as an
        # unknown option; widen its negative-number test to angle shorthand.
        self._negative_number_matcher = re.compile(r"^-\.?\d|^-pi")

    def _get_values(self, action, arg_strings):
        # for an explicit '--' value ('--theta1=--') argparse drops the '--'
        # and stores [] without calling the type function
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _angle(text):
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid(text):
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
        if rows < 1 or cols < 1:
            raise ValueError
        return rows, cols
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like '9x9', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qduality",
                     description="Entanglement-controlled interferometer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="correlation at one setting")
    sim.add_argument("--theta1", type=_angle, required=True)
    sim.add_argument("--theta2", type=_angle, required=True)
    sim.add_argument("--phi", type=_angle, required=True)
    sim.add_argument("--delta", type=_angle, default=math.pi / 4)
    sim.add_argument("--visibility", type=float, default=1.0)
    sim.add_argument("--background", type=float, default=0.0)
    sim.add_argument("--shots", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)

    surf = sub.add_parser("surface", help="correlation surface CSV")
    surf.add_argument("--theta1", type=_angle, required=True)
    surf.add_argument("--grid", type=_grid, default=(9, 9),
                      help="theta2 x phi grid size, e.g. 9x9")
    surf.add_argument("--visibility", type=float, default=1.0)
    surf.add_argument("--background", type=float, default=0.0)
    surf.add_argument("--out", default=None)

    ch = sub.add_parser("chsh", help="CHSH parameter from model or counts")
    ch.add_argument("--phi", type=_angle, default=3 * math.pi / 2)
    ch.add_argument("--visibility", type=float, default=1.0)
    ch.add_argument("--background", type=float, default=0.0)
    ch.add_argument("--from", dest="counts_file", default=None,
                    help="counts CSV with the four CHSH settings")
    ch.add_argument("--error-model", choices=("multinomial",),
                    default="multinomial")

    hom = sub.add_parser("hom", help="two-photon dip curve CSV")
    hom.add_argument("--transmission", type=_angle, default=1.0 / 3.0,
                     help="beam-splitter transmission (accepts '1/3')")
    hom.add_argument("--x0", type=float, default=11.63)
    hom.add_argument("--sigma", type=float, default=0.5)
    hom.add_argument("--from", dest="start", type=float, required=True)
    hom.add_argument("--to", dest="stop", type=float, required=True)
    hom.add_argument("--steps", type=int, required=True)
    hom.add_argument("--out", default=None)

    hvc = sub.add_parser("hvcheck", help="hidden-variable feasibility check")
    hvc.add_argument("--settings", required=True,
                     help="CSV of theta2_rad,phi_rad rows")
    hvc.add_argument("--mode", choices=("objectivity", "chsh-bound"),
                     default="objectivity")

    ana = sub.add_parser("analyze", help="per-record correlations CSV")
    ana.add_argument("--from", dest="counts_file", required=True)
    ana.add_argument("--out", default=None)
    ana.add_argument("--error-model", choices=("multinomial",),
                     default="multinomial")

    return parser


def _noise(args) -> circuit.NoiseParams:
    return circuit.NoiseParams(visibility=args.visibility,
                               background=args.background)


def _cmd_simulate(args) -> int:
    if args.shots is not None and args.shots < 1:
        raise ValueError(f"--shots must be at least 1, got {args.shots}")
    config = circuit.ExperimentConfig(
        phi=args.phi, theta1=args.theta1, theta2=args.theta2,
        delta=args.delta, noise=_noise(args),
    )
    dist = circuit.coincidence_probabilities(config)
    print(f"E={dist.correlation:.4f}")
    if args.shots is not None:
        counts = circuit.sample_counts(dist, args.shots, args.seed)
        print("counts=" + ",".join(str(int(c)) for c in counts))
    return EXIT_OK


def _cmd_surface(args) -> int:
    n_theta2, n_phi = args.grid
    theta2_grid = (
        circuit.THETA2_GRID_9 if n_theta2 == 9
        else tuple(np.linspace(-math.pi / 2, math.pi / 2, n_theta2))
    )
    phi_grid = (
        circuit.PHI_GRID_9 if n_phi == 9
        else tuple(np.linspace(0.0, 2 * math.pi, n_phi))
    )
    table = circuit.correlation_surface(args.theta1, theta2_grid, phi_grid,
                                        noise=_noise(args))
    lines = [SURFACE_HEADER]
    for i, t2 in enumerate(theta2_grid):
        for j, phi in enumerate(phi_grid):
            lines.append(f"{float(t2)!r},{float(phi)!r},{table[i, j]:.10f}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_chsh(args) -> int:
    if args.counts_file is not None:
        records = ingest_counts(args.counts_file)
        s, sigma = chsh_from_records(records)
        print(f"S={s:.4f}")
        print(f"sigma_S={sigma:.4f}")
    else:
        s = circuit.chsh(args.phi, noise=_noise(args))
        print(f"S={s:.4f}")
    return EXIT_OK


def _cmd_hom(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    positions = np.linspace(args.start, args.stop, args.steps)
    overlap = fock.OverlapModel(x0=args.x0, sigma=args.sigma)
    result = fock.hom_scan(args.transmission, overlap, positions)
    lines = [DIP_HEADER]
    for x, p in zip(result.positions, result.coincidence):
        lines.append(f"{x!r},{p:.10f}")
    lines.append(f"# contrast={result.contrast:.6f}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _read_settings(path) -> hv.SettingsList:
    entries = []
    for lineno, line in _data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ParseError(path, lineno, f"expected 2 columns, got {len(fields)}")
        try:
            entry = (float(fields[0]), float(fields[1]))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if not all(map(math.isfinite, entry)):
            raise ParseError(path, lineno, "settings must be finite")
        entries.append(entry)
    if not entries:
        raise ParseError(path, 1, "settings file contains no settings")
    return hv.SettingsList(entries=entries)


def _cmd_hvcheck(args) -> int:
    if args.mode == "chsh-bound":
        bound = hv.chsh_local_bound()
        quantum = circuit.chsh(3 * math.pi / 2)
        print(f"LOCAL_BOUND={bound:.4f}")
        print(f"QUANTUM_S={quantum:.4f}")
        return EXIT_OK
    settings = _read_settings(args.settings)
    targets = [hv.quantum_joint(t2, phi) for t2, phi in settings.entries]
    result = hv.feasibility(targets, settings)
    if result.feasible:
        print(f"FEASIBLE residual={float(result.residual):.3e}")
        for strategy, weight in zip(result.model.strategies, result.model.weights):
            outcomes = "".join(strategy.bob_outcomes)
            print(f"witness: {float(weight):.6f} {strategy.tag} {outcomes}")
        return EXIT_OK
    print(f"INFEASIBLE residual={float(result.residual):.6f}")
    return EXIT_INFEASIBLE


def _cmd_analyze(args) -> int:
    records = ingest_counts(args.counts_file)
    lines = [ANALYZE_HEADER]
    for r in records:
        res = correlation_with_error(r)
        lines.append(
            f"{r.theta1!r},{r.theta2!r},{r.phi!r},"
            f"{res.E:.6f},{res.sigma:.6f},{res.total}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "surface": _cmd_surface,
    "chsh": _cmd_chsh,
    "hom": _cmd_hom,
    "hvcheck": _cmd_hvcheck,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
