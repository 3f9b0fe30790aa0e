"""Command-line front end: simulation, data ingestion, and CSV emission.

Counts files are CSV with header ``theta1_rad,theta2_rad,phi_rad,n_pp,
n_pm,n_mp,n_mm``, decimal radians, UTF-8 (a leading BOM is skipped), LF
line endings, '#' comments.
Exit codes: 0 success (or feasible), 1 usage error, 2 I/O or parse error,
3 declared infeasible (hvcheck only).

Each command imports only the layer it runs, inside its ``_cmd_*``
function, so ``analyze``, ``chsh --from`` and usage errors never load
numpy or the simulation layers.
"""

from __future__ import annotations

import argparse
import collections
import math
import os
import re
import sys

COUNTS_HEADER = "theta1_rad,theta2_rad,phi_rad,n_pp,n_pm,n_mp,n_mm"
SURFACE_HEADER = "theta2_rad,phi_rad,E"
DIP_HEADER = "position_mm,coincidence_probability"
ANALYZE_HEADER = "theta1_rad,theta2_rad,phi_rad,E,sigma,total"
SETTINGS_HEADER = "theta2_rad,phi_rad"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3

# most points one command computes (surface grid cells, hom positions), so
# memory stays bounded whatever the input
MAX_POINTS = 1_000_000
# most settings `hvcheck` reads: a feasible witness prints up to 2(n + 1)
# lines of n outcomes each, about 34 MB at the cap, and peaks under 100 MB
MAX_SETTINGS = 4096
# phases per block of `surface` lines: the first block's reprs are made once
# per command and the rest once per row, so few strings are held at a time
_CSV_BLOCK = 4096


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number, or None when
    the fault is in the file as a whole."""

    def __init__(self, path, line, message):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


# namedtuples, not dataclasses: the numpy-free commands then never import
# dataclasses and the inspect module it loads
class CoincidenceRecord(collections.namedtuple(
        "CoincidenceRecord", "theta1 theta2 phi n_pp n_pm n_mp n_mm")):
    """One measurement setting with its four coincidence counts."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("theta1", "theta2", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        return self

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


CorrelationResult = collections.namedtuple("CorrelationResult", "E sigma total")


# a decimal as argparse takes it for a value: '3', '3.', '.5', '1e-3'
_DECIMAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_ANGLE_RE = re.compile(
    rf"^(?P<sign>[+-]?)(?P<num>{_DECIMAL})?(?P<pi>pi)?(?:/(?P<den>{_DECIMAL}))?$")


def parse_angle(text: str) -> float:
    """Parse 'pi'-expression shorthand: '3pi/2', '-pi/4', '0.5', '1e-3', '1/3'."""
    match = _ANGLE_RE.match(text.strip().replace(" ", ""))
    if not match or (match.group("num") is None and match.group("pi") is None):
        raise ValueError(f"cannot parse angle {text!r}")
    num, den = float(match.group("num") or 1.0), float(match.group("den") or 1.0)
    if den == 0.0:
        raise ValueError(f"cannot parse angle {text!r}: zero denominator")
    value = num * (math.pi if match.group("pi") else 1.0) / den
    if not (math.isfinite(value) and math.isfinite(den)):
        raise ValueError(f"cannot parse angle {text!r}: not finite")
    return -value if match.group("sign") == "-" else value


def _data_lines(path):
    """Yield (line_number, line) skipping blanks, comments and the header."""
    # utf-8-sig drops a leading BOM; surrogateescape keeps a bad byte in its
    # line, so the error below can name the line
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise ParseError(path, lineno, f"not UTF-8 text (byte 0x{byte:02x})") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.replace(" ", "") in (COUNTS_HEADER, SETTINGS_HEADER):
                continue
            yield lineno, line


def _counts_rows(path):
    """Yield (line_number, CoincidenceRecord) for each row of a counts CSV."""
    for lineno, line in _data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 7:
            raise ParseError(path, lineno, f"expected 7 columns, got {len(fields)}")
        try:
            angles = [float(f) for f in fields[:3]]
            counts = [int(f) for f in fields[3:]]
            record = CoincidenceRecord(*angles, *counts)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        yield lineno, record


def ingest_counts(path) -> list:
    """Read coincidence records from a counts CSV."""
    return [record for _, record in _counts_rows(path)]


def _analyze_counts(path) -> list:
    """(record, CorrelationResult) per row of a counts CSV.

    The whole file is parsed before any row is analyzed; a row that cannot
    be analyzed (zero total counts) is a parse error on its line.
    """
    results = []
    for lineno, record in list(_counts_rows(path)):
        try:
            results.append((record, correlation_with_error(record)))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    return results


def correlation_with_error(record: CoincidenceRecord) -> CorrelationResult:
    """E from counts plus the multinomial error bar sqrt((1-E^2)/N)."""
    total = record.total
    if total < 1:
        raise ValueError("cannot analyze a record with zero total counts")
    e = (record.n_pp - record.n_pm - record.n_mp + record.n_mm) / total
    sigma = math.sqrt(max(0.0, 1.0 - e * e) / total)
    return CorrelationResult(E=e, sigma=sigma, total=total)


def chsh_from_records(records) -> tuple:
    """(S, sigma_S) from four records at one phi covering two angles per side.

    The sign pattern is |E(t1,t2) + E(t1,t2') - E(t1',t2) + E(t1',t2')|
    with t1 < t1' and t2 < t2'; sigma_S is the quadrature sum.
    """
    if len(records) != 4:
        raise ValueError(f"expected exactly 4 records, got {len(records)}")
    if len({r.phi for r in records}) != 1:
        raise ValueError("records must share one phi")
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
    s = abs(
        table[(0, 0)].E + table[(0, 1)].E - table[(1, 0)].E + table[(1, 1)].E
    )
    sigma = math.sqrt(sum(res.sigma**2 for res in table.values()))
    return s, sigma


def _atomic_write(path, lines) -> None:
    """Write each of ``lines`` plus a newline to ``path`` as it comes.

    The text goes to a temporary file beside ``path`` that replaces it only
    once ``lines`` is exhausted; if writing or ``lines`` itself raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            _write_lines(fh, lines)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_lines(stream, lines) -> None:
    stream.writelines(line + "\n" for line in lines)


def _write_output(lines, out_path) -> None:
    """Stream ``lines`` (an iterable of str, no newlines) to stdout or ``out_path``."""
    if out_path is None:
        _write_lines(sys.stdout, lines)
    else:
        _atomic_write(out_path, lines)


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
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like '9x9', got {text!r}")
    if rows * cols > MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {rows}x{cols} has more than {MAX_POINTS:,} points")
    return rows, cols


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
                      help="theta2 x phi grid size, e.g. 9x9; at most "
                           f"{MAX_POINTS:,} points")
    surf.add_argument("--visibility", type=float, default=1.0)
    surf.add_argument("--background", type=float, default=0.0)
    surf.add_argument("--out", default=None)

    ch = sub.add_parser("chsh", help="CHSH parameter from model or counts")
    ch.add_argument("--phi", type=_angle, default=3 * math.pi / 2)
    ch.add_argument("--visibility", type=float, default=1.0)
    ch.add_argument("--background", type=float, default=0.0)
    ch.add_argument("--from", dest="counts_file", default=None,
                    help="counts CSV with the four CHSH settings")

    hom = sub.add_parser("hom", help="two-photon dip curve CSV")
    hom.add_argument("--transmission", type=_angle, default=1.0 / 3.0,
                     help="beam-splitter transmission (accepts '1/3')")
    hom.add_argument("--x0", type=float, default=11.63)
    hom.add_argument("--sigma", type=float, default=0.5)
    hom.add_argument("--from", dest="start", type=float, required=True)
    hom.add_argument("--to", dest="stop", type=float, required=True)
    hom.add_argument("--steps", type=int, required=True,
                     help=f"number of positions, 2 to {MAX_POINTS:,}")
    hom.add_argument("--out", default=None)

    hvc = sub.add_parser("hvcheck", help="hidden-variable feasibility check")
    hvc.add_argument("--settings", required=True,
                     help="CSV of theta2_rad,phi_rad rows")
    hvc.add_argument("--mode", choices=("objectivity", "chsh-bound"),
                     default="objectivity")

    ana = sub.add_parser("analyze", help="per-record correlations CSV")
    ana.add_argument("--from", dest="counts_file", required=True)
    ana.add_argument("--out", default=None)

    return parser


def _noise(args) -> circuit.NoiseParams:
    from . import circuit

    return circuit.NoiseParams(visibility=args.visibility,
                               background=args.background)


def _cmd_simulate(args) -> int:
    from . import circuit

    if args.shots is not None and args.shots < 1:
        raise ValueError(f"--shots must be at least 1, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    config = circuit.ExperimentConfig(
        phi=args.phi, theta1=args.theta1, theta2=args.theta2,
        delta=args.delta, noise=_noise(args),
    )
    dist = circuit.coincidence_probabilities(config)
    # drawn first, so that a --shots that sample_counts rejects prints nothing
    counts = None if args.shots is None else circuit.sample_counts(dist, args.shots, args.seed)
    print(f"E={dist.correlation:.4f}")
    if counts is not None:
        print("counts=" + ",".join(str(int(c)) for c in counts))
    return EXIT_OK


def _cmd_surface(args) -> int:
    import numpy as np

    from . import circuit

    n_theta2, n_phi = args.grid
    theta2_grid = np.linspace(-math.pi / 2, math.pi / 2, n_theta2)
    phi_grid = np.linspace(0.0, 2 * math.pi, n_phi)
    table = circuit.correlation_surface(args.theta1, theta2_grid, phi_grid,
                                        noise=_noise(args))

    def lines():
        yield SURFACE_HEADER
        first = [repr(phi) for phi in phi_grid[:_CSV_BLOCK].tolist()]
        for t2, row in zip(theta2_grid, table):
            t2 = repr(float(t2))
            for start in range(0, n_phi, _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                phis = [repr(phi) for phi in phi_grid[block].tolist()] if start else first
                for phi, e in zip(phis, row[block].tolist()):
                    yield f"{t2},{phi},{e:.10f}"

    _write_output(lines(), args.out)
    return EXIT_OK


def _cmd_chsh(args) -> int:
    if args.counts_file is not None:
        records = [record for record, _ in _analyze_counts(args.counts_file)]
        try:
            s, sigma = chsh_from_records(records)
        except ValueError as exc:
            raise ParseError(args.counts_file, None, str(exc)) from None
        print(f"S={s:.4f}")
        print(f"sigma_S={sigma:.4f}")
    else:
        from . import circuit

        s = circuit.chsh(args.phi, noise=_noise(args))
        print(f"S={s:.4f}")
    return EXIT_OK


def _cmd_hom(args) -> int:
    import numpy as np

    from . import fock

    if not 2 <= args.steps <= MAX_POINTS:
        raise ValueError(f"--steps must be from 2 to {MAX_POINTS:,}, got {args.steps}")
    # an infinite span (--to inf, or --from -1e308 --to 1e308) would make
    # linspace warn and return NaN positions
    if not math.isfinite(args.stop - args.start):
        raise ValueError("--from and --to must be finite and less than 1.8e308 apart")
    positions = np.linspace(args.start, args.stop, args.steps)
    overlap = fock.OverlapModel(x0=args.x0, sigma=args.sigma)
    result = fock.hom_scan(args.transmission, overlap, positions)

    def lines():
        yield DIP_HEADER
        for x, p in zip(result.positions, result.coincidence):
            yield f"{x!r},{p:.10f}"
        yield f"# contrast={result.contrast:.6f}"

    _write_output(lines(), args.out)
    return EXIT_OK


def _read_settings(path) -> hv.SettingsList:
    from . import hv

    first_line = {}  # setting -> the line it is on
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
        if entry in first_line:
            raise ParseError(path, lineno,
                             f"duplicate setting (first on line {first_line[entry]})")
        if len(first_line) == MAX_SETTINGS:
            raise ParseError(path, lineno, f"more than {MAX_SETTINGS:,} settings")
        first_line[entry] = lineno
    if not first_line:
        raise ParseError(path, 1, "settings file contains no settings")
    return hv.SettingsList(entries=list(first_line))


def _cmd_hvcheck(args) -> int:
    from . import hv

    settings = _read_settings(args.settings)
    if args.mode == "chsh-bound":
        from . import circuit

        bound = hv.chsh_local_bound()
        quantum = circuit.chsh(3 * math.pi / 2)
        print(f"LOCAL_BOUND={bound:.4f}")
        print(f"QUANTUM_S={quantum:.4f}")
        return EXIT_OK
    targets = hv.quantum_joints(settings.entries)
    result = hv.feasibility(targets, settings)
    if result.feasible:
        print(f"FEASIBLE residual={float(result.residual):.3e}")
        for strategy, weight in zip(result.model.strategies, result.model.weights):
            print(f"witness: {float(weight):.6f} {strategy.tag} {strategy.bob_outcomes}")
        return EXIT_OK
    print(f"INFEASIBLE residual={float(result.residual):.6f}")
    return EXIT_INFEASIBLE


def _cmd_analyze(args) -> int:
    results = _analyze_counts(args.counts_file)

    def lines():
        yield ANALYZE_HEADER
        for r, res in results:
            yield (f"{r.theta1!r},{r.theta2!r},{r.phi!r},"
                   f"{res.E:.6f},{res.sigma:.6f},{res.total}")

    _write_output(lines(), args.out)
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
