"""Command-line interface.

Subcommands: verify, simulate, lie {commutator, killing, adjoint, classify,
transform, ic}, conserve, wavefront, catalog list.

Machine-readable outputs: CSV for point/trajectory data (mandatory header,
'.' decimal separator, LF line endings, shortest round-trip float
formatting) and JSON for scalars and summaries.  Every run emits a
RunManifest (command, full parameter set, artifact version, sha256 digests
of the written files, stable key order); re-running a manifest's argv
reproduces byte-identical outputs.

Exit codes: 0 success/VERIFIED/CONSERVED, 2 REFUTED/FLOOR, 3 inconclusive
(PAPER-CLAIMED, INCONCLUSIVE), 4 solver error during simulation (an invalid
state, named by cell and time, or CFL underflow), 5 refuted wavefront
background, 64 usage error (an unusable input or output path included), 65
domain or parse error (a bad CSV initial condition included).

Start-up: this module imports only the standard library and the package
root, which holds the --scheme/--bc choices, DomainError and each catalog
family's keys and summary.  Each command imports what it runs: `catalog
list` and an entry spec's usage errors load nothing more, every `lie`
command but transform loads lie alone and no numpy, an entry spec that
passes its usage checks loads catalog and model, conserve and wavefront
add conservation or wavefront to those, and only simulate's finite-volume
runs load the solver.
"""

import argparse
import json
import math
import sys
import urllib.parse
from pathlib import Path

from . import BCS, CATALOG_ROWS, SCHEMES, DomainError, __version__, require_entry_keys

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_SOLVER = 4
EXIT_BACKGROUND = 5
EXIT_USAGE = 64
EXIT_DOMAIN = 65


class UsageError(Exception):
    pass


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)         # "nan", "inf" or "-inf"
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> str:
    import hashlib
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _emit(command: str, argv: list, parameters: dict, files: dict,
          stdout_obj=None) -> None:
    """Write output files plus the RunManifest; print stdout_obj as JSON.

    files maps Path -> text content.  Without files, the manifest is
    embedded in the printed JSON instead, so every command that writes no
    file passes a stdout_obj.  When a write fails, the files already written
    are removed before the OSError propagates.
    """
    digests = {}
    try:
        for path, text in files.items():
            digests[str(path)] = _write_text(path, text)
        manifest = {
            "command": command,
            "argv": list(argv),
            "parameters": parameters,
            "artifact_version": __version__,
            "outputs": digests,
        }
        if files:
            mpath = Path(str(next(iter(files))) + ".manifest.json")
            _write_text(mpath, _dump_json(manifest))
    except OSError:     # a failed write leaves no file this call wrote
        for path in digests:
            Path(path).unlink(missing_ok=True)
        raise
    if stdout_obj is not None:
        out = dict(stdout_obj)
        if not files:
            out["manifest"] = manifest
        sys.stdout.write(_dump_json(out))


def parse_entry_spec(spec: str):
    """Parse 'NAME?key=val&key=val' into a catalog entry.

    Unknown names, missing keys and unknown keys are rejected with
    exhaustive diagnostics (usage errors); malformed or out-of-range values
    raise ValueError.  Everything up to the values is checked from the
    package root (CATALOG_ROWS, require_entry_keys), so a spec usage error loads no numpy.
    """
    name, _, query = spec.partition("?")
    if name not in CATALOG_ROWS:
        raise UsageError(f"unknown catalog entry {name!r}; known entries: "
                         + ", ".join(sorted(CATALOG_ROWS)))
    try:
        pairs = urllib.parse.parse_qsl(query, keep_blank_values=True,
                                       strict_parsing=bool(query))
    except ValueError as e:
        raise UsageError(f"malformed entry query {query!r}: {e}") from e
    got = dict(pairs)
    if len(got) != len(pairs):
        raise UsageError(f"duplicate keys in entry spec {spec!r}")
    require_entry_keys(name, got, UsageError)
    params = {}
    for k, v in got.items():
        if k == "mshape":
            params[k] = v
        else:
            try:
                params[k] = float(v)
            except ValueError as e:
                raise ValueError(f"entry key {k}={v!r} is not a number") from e
    from .catalog import make_entry
    return make_entry(name, **params)


def _parse_vector(text: str, n: int | None, what: str) -> list:
    parts = text.split(",")
    if n is not None and len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from e


def _region_from_args(args, entry, mp):
    from dataclasses import replace

    from .catalog import GridRegion
    explicit = [args.x0, args.x1, args.t0, args.t1]
    if all(v is None for v in explicit):
        return replace(entry.default_region(mp), nx=args.nx, nt=args.nt)
    if any(v is None for v in explicit):
        raise UsageError("either give all of --x0 --x1 --t0 --t1 or none")
    return GridRegion(args.x0, args.x1, args.nx, args.t0, args.t1, args.nt)


def _csv(header: list, rows) -> str:
    """CSV text of rows of Python floats, each in shortest round-trip form (repr)."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- verify


def cmd_verify(args, argv) -> int:
    entry = parse_entry_spec(args.entry)
    from .catalog import REFUTED, VERIFIED, verify_entry
    from .model import ModelParams
    mp = ModelParams(A=args.A, D=args.D)
    region = _region_from_args(args, entry, mp)
    rep = verify_entry(entry, mp, region, tol=args.tol)
    params = {
        "entry": args.entry, "A": args.A, "D": args.D, "tol": args.tol,
        "region": [region.x0, region.x1, region.nx, region.t0, region.t1, region.nt],
    }
    files = {}
    if args.out:
        files[Path(args.out)] = _dump_json(rep.as_dict())
    _emit("verify", argv, params, files, stdout_obj=rep.as_dict())
    if rep.status == VERIFIED:
        return EXIT_OK
    if rep.status == REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------- simulate


def _parse_axis(spec: str, what: str):
    import numpy as np
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError(f"{what} must look like 'x:min:max:count', got {spec!r}")
    axis = parts[0]
    try:
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from e
    if n < 2 or hi <= lo:
        raise UsageError(f"{what}: need count >= 2 and max > min")
    if not math.isfinite(hi - lo):     # a NaN bound passes hi <= lo
        raise ValueError(f"{what}: bounds and their span must be finite, got {spec!r}")
    return axis, np.linspace(lo, hi, n)


def _surface_mode(args, argv, entry, mp) -> int:
    from .catalog import mesh
    a1, v1 = _parse_axis(args.surface[0], "--surface[0]")
    a2, v2 = _parse_axis(args.surface[1], "--surface[1]")
    axes = {a1: v1, a2: v2}
    if set(axes) != {"x", "t"}:
        raise UsageError("--surface needs one x spec and one t spec")
    sampler = entry.sampler(mp)
    x, t = mesh(axes["x"], axes["t"])
    sampler.require_in_domain(x, t, "surface point")
    st = sampler.eval(x, t)
    rows = zip(t.ravel().tolist(), x.ravel().tolist(), st.rho.ravel().tolist(),
               st.u.ravel().tolist())
    out = Path(args.out) if args.out else Path(f"surface_{entry.kind}.csv")
    params = {"ic": args.ic, "A": args.A, "D": args.D,
              "surface": list(args.surface), "out": str(out)}
    _emit("simulate", argv, params, {out: _csv(["t", "x", "rho", "u"], rows)})
    return EXIT_OK


def _field_from_csv(path: Path):
    import numpy as np

    from .solver import Grid
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:3] != ["x", "rho", "u"]:
        raise ValueError(f"IC csv must have header x,rho,u, got {lines[0]!r}")
    xs, rho, u = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            raise ValueError(f"IC csv line {lineno} holds a value that is not a number, "
                             f"got {line!r}") from None
        if len(vals) < 3:
            raise ValueError(f"IC csv line {lineno} needs the fields x,rho,u, got {line!r}")
        if not (0.0 < vals[1] < math.inf and math.isfinite(vals[2])):
            raise ValueError(f"IC csv line {lineno} needs finite rho > 0 and finite u, "
                             f"got {line!r}")
        xs.append(vals[0])
        rho.append(vals[1])
        u.append(vals[2])
    xs = np.array(xs)
    dxs = np.diff(xs)
    if len(xs) < 8 or not np.allclose(dxs, dxs[0], rtol=1e-8):
        raise ValueError("IC csv must hold >= 8 uniformly spaced cells")
    dx = float(dxs[0])
    grid = Grid(x0=float(xs[0]) - 0.5 * dx, dx=dx, nx=len(xs))
    return grid, np.array(rho), np.array(u)


def cmd_simulate(args, argv) -> int:
    ic_path = Path(args.ic)
    from_csv = ic_path.suffix == ".csv" and ic_path.exists()
    if ic_path.suffix == ".csv" and not from_csv and args.ic.partition("?")[0] not in CATALOG_ROWS:
        raise UsageError(f"--ic file {args.ic!r} does not exist")
    entry = None if from_csv else parse_entry_spec(args.ic)
    from .model import ModelParams
    mp = ModelParams(A=args.A, D=args.D)

    if args.surface:
        if entry is None:
            raise UsageError("--surface mode needs a catalog entry IC")
        return _surface_mode(args, argv, entry, mp)

    from .solver import Field, Grid, SolverConfig, SolverError, error_norms, run

    if from_csv:
        grid_flags = [f"--{k}" for k in ("x0", "x1", "nx") if getattr(args, k) is not None]
        if grid_flags:
            raise UsageError(f"{', '.join(grid_flags)} cannot be used with a csv field IC: "
                             "its cells set the grid")
        grid, rho0, u0 = _field_from_csv(ic_path)
        if args.bc == "dirichlet":
            raise UsageError("dirichlet bc needs a catalog-entry IC, not a csv field")
        sampler = None
        t0 = args.t0 if args.t0 is not None else 0.0
        ic = Field(t=t0, rho=rho0, u=u0)
    else:
        sampler = entry.sampler(mp)
        region = entry.default_region(mp)
        x0 = args.x0 if args.x0 is not None else region.x0
        x1 = args.x1 if args.x1 is not None else region.x1
        t0 = args.t0 if args.t0 is not None else region.t0
        grid = Grid.over(x0, x1, args.nx if args.nx is not None else 100)
        ic = sampler
    t_end = args.t_end if args.t_end is not None else t0 + 1.0
    snaps = _parse_vector(args.snap, None, "--snap") if args.snap else [t_end]

    cfg = SolverConfig(grid=grid, params=mp, scheme=args.scheme, cfl=args.cfl,
                       bc=args.bc, dirichlet_sampler=sampler if args.bc == "dirichlet" else None)
    try:
        traj = run(cfg, ic, t0, t_end, snapshots=snaps)
    except SolverError as e:
        sys.stderr.write(f"solver error: {e}\n")
        return EXIT_SOLVER

    xs = grid.centers().tolist()
    rows = [(float(tsnap), x, rho, u) for tsnap, f in zip(traj.times, traj.fields)
            for x, rho, u in zip(xs, f.rho.tolist(), f.u.tolist())]
    diagnostics = {"steps": traj.diagnostics, "summary": traj.summary}
    if sampler is not None:
        # manufactured-solution runs also report per-snapshot error norms, and whether the
        # entry solves the model that ran: verify's status at this (A, D), on the entry's
        # default region, which is named, since the run's window may differ from it
        from .catalog import verify_entry
        diagnostics["entry"] = {
            "id": entry.id(), "status": verify_entry(entry, mp, region).status,
            "verified_on": [region.x0, region.x1, region.nx, region.t0, region.t1, region.nt]}
        errs = []
        for tsnap, f in zip(traj.times, traj.fields):
            norms = error_norms(f, sampler, grid)
            errs.append({"t": float(tsnap),
                         "rho_L1": norms["rho"][0], "rho_Linf": norms["rho"][1],
                         "u_L1": norms["u"][0], "u_Linf": norms["u"][1]})
        diagnostics["errors"] = errs
    out = Path(args.out) if args.out else Path("trajectory.csv")
    files = {
        out: _csv(["t", "x", "rho", "u"], rows),
        Path(str(out) + ".diagnostics.json"): _dump_json(diagnostics),
    }
    params = {"ic": args.ic, "scheme": args.scheme, "nx": grid.nx, "cfl": args.cfl,
              "bc": args.bc, "A": args.A, "D": args.D, "t0": t0, "t_end": t_end,
              "snap": snaps, "x0": float(grid.x0), "x1": float(grid.x0 + grid.span),
              "out": str(out)}
    _emit("simulate", argv, params, files)
    return EXIT_OK


# ---------------------------------------------------------------- lie


def cmd_lie(args, argv) -> int:
    from .lie import (AdjointParams, InfinitesimalParams, LieCoeffs, adjoint_apply,
                      classify_optimal, commutator, group_transform, invariant_ic,
                      invariant_tuple, killing_form)
    sub = args.lie_cmd
    if sub == "commutator":
        a = LieCoeffs(*_parse_vector(args.a, 4, "first vector"))
        b = LieCoeffs(*_parse_vector(args.b, 4, "second vector"))
        params, result = {"a": args.a, "b": args.b}, {"result": commutator(a, b).as_tuple()}
    elif sub == "killing":
        w = LieCoeffs(*_parse_vector(args.w, 4, "vector"))
        params, result = {"w": args.w}, {"K": killing_form(w, w)}
    elif sub == "adjoint":
        eps = AdjointParams(*_parse_vector(args.eps, 4, "eps"))
        w = LieCoeffs(*_parse_vector(args.w, 4, "vector"))
        params = {"eps": args.eps, "w": args.w}
        result = {"result": adjoint_apply(eps, w).as_tuple()}
    elif sub == "classify":
        w = LieCoeffs(*_parse_vector(args.w, 4, "vector"))
        try:
            cls, e, scale = classify_optimal(w)
        except ValueError as err:
            raise UsageError(str(err)) from err
        inv = invariant_tuple(w)
        params, result = {"w": args.w}, {
            "family": cls.family, "b": cls.b, "l1": cls.l1, "l2": cls.l2,
            "scale": scale, "eps": list(e.as_tuple()), "residue": cls.residue,
            "representative": cls.representative(),
            "invariants": {"K": inv.killing, "M": inv.M, "N": inv.N,
                           "P": inv.P, "Q": inv.Q, "R": inv.R},
        }
    elif sub == "transform":
        entry = parse_entry_spec(args.entry)
        from .catalog import GridRegion, verify_sampler
        from .model import ModelParams
        mp = ModelParams(A=args.A, D=args.D)
        transformed = group_transform(args.generator, args.eps, entry.sampler(mp))
        samples = []
        for spec in args.at or []:
            x, t = _parse_vector(spec, 2, "--at")
            transformed.require_in_domain(x, t, "--at point")
            st = transformed.eval(x, t)
            samples.append({"x": x, "t": t, "rho": st.rho, "u": st.u})
        result = {"generator": args.generator, "eps": args.eps, "samples": samples}
        if args.verify:
            region = entry.default_region(mp)
            # Shrink the probe window so it stays inside the transformed domain.
            dx = 0.15 * (region.x1 - region.x0)
            dt = 0.15 * (region.t1 - region.t0)
            shrunk = GridRegion(region.x0 + dx, region.x1 - dx, 21,
                                region.t0 + dt, region.t1 - dt, 21)
            rep = verify_sampler(mp, transformed, shrunk, tol=args.tol,
                                 entry_id=f"G{args.generator}({args.eps}) {entry.id()}")
            result["verify"] = rep.as_dict()
        params = {"generator": args.generator, "eps": args.eps, "entry": args.entry,
                  "A": args.A, "D": args.D}
    else:   # sub == "ic"
        e = InfinitesimalParams(*_parse_vector(args.e, 4, "--e"))
        try:
            theta = invariant_ic(e, args.delta, args.x, args.branch)
        except DomainError:
            raise  # a point outside the branch's domain: exit 65 like every DomainError
        except ValueError as err:
            raise UsageError(str(err)) from err
        params = {"e": args.e, "delta": args.delta, "x": args.x, "branch": args.branch}
        result = {"theta": theta}
    _emit(f"lie {sub}", argv, params, {}, stdout_obj=result)
    return EXIT_OK


# ---------------------------------------------------------------- conserve


def cmd_conserve(args, argv) -> int:
    entry = parse_entry_spec(args.entry)
    from functools import partial

    from .catalog import _peak, mesh, step_maxima
    from .conservation import (CONSERVED, FLOOR, MultiplierConstants, divergence_residual,
                               divergence_verdict, symmetry_conserved_vector)
    from .model import ModelParams
    mp = ModelParams(A=args.A, D=args.D)
    c = MultiplierConstants(*_parse_vector(args.c, 3, "--c"))
    region = _region_from_args(args, entry, mp)
    sampler = entry.sampler(mp)
    # Keep the FD stencils of the divergence probe inside the region interior.
    x, t = mesh(*region.interior(args.nx, args.nt))

    def vector_and_divergence(x, t):
        return (symmetry_conserved_vector(args.which, c, mp, sampler, x, t, args.h_step),
                divergence_residual(args.which, c, mp, sampler, x, t, args.h_step))

    try:
        (ux, ut), div = vector_and_divergence(x, t)
    except DomainError as err:
        # Report the first point, in C order, whose centre or stencil fails, by its own
        # message.  Checks are elementwise and run in order, so the point a grid error
        # names fails as a point, and the points before it either pass or fail a later
        # check, whose error names an earlier point: at most one retry per check.
        xs, ts = x.ravel(), t.ravel()
        while err.index is not None:    # None: raised by hand, with no grid index
            i = err.index
            try:
                if i:   # a sampler need not take empty arrays
                    vector_and_divergence(xs[:i], ts[:i])
            except DomainError as prefix_err:
                err = prefix_err
                continue
            vector_and_divergence(float(xs[i]), float(ts[i]))
            break
        raise err
    # The verdict: the divergence at h (the CSV's), h/2 and h/4, by verify's step refinement.
    steps = [args.h_step, args.h_step / 2, args.h_step / 4]
    peak, at = _peak(div, x, t)
    maxima = [peak, *step_maxima(partial(divergence_residual, args.which, c, mp, sampler),
                                 x.ravel(), t.ravel(), steps[1:])]
    verdict = divergence_verdict(steps, maxima, max(float(abs(ux).max()), float(abs(ut).max())))
    verdict["max_at"] = at
    rows = zip(x.ravel().tolist(), t.ravel().tolist(), ux.ravel().tolist(),
               ut.ravel().tolist(), div.ravel().tolist())
    out = Path(args.out) if args.out else Path(f"conserve_{args.which}.csv")
    params = {"entry": args.entry, "which": args.which, "c": args.c,
              "A": args.A, "D": args.D, "h_step": args.h_step,
              "region": [region.x0, region.x1, args.nx, region.t0, region.t1, args.nt],
              "out": str(out)}
    _emit("conserve", argv, params, {out: _csv(["x", "t", "Ux", "Ut", "divergence"], rows)},
          stdout_obj=verdict)
    if verdict["status"] == CONSERVED:
        return EXIT_OK
    if verdict["status"] == FLOOR:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------- wavefront


def cmd_wavefront(args, argv) -> int:
    entry = parse_entry_spec(args.background)
    if args.D != 0.0:
        # For D > 0 the velocity equation is parabolic: a jump in u_x does not ride
        # u + sqrt(A), and the amplitude law has no meaning.
        raise ValueError(f"wavefront needs the inviscid system (D = 0), got D={args.D}")
    from .catalog import VERIFIED, verify_entry
    from .model import ModelParams
    from .wavefront import AmplitudeProblem, amplitude_quadrature
    mp = ModelParams(A=args.A, D=args.D)
    rep = verify_entry(entry, mp, tol=1e-8)
    if rep.status != VERIFIED:
        sys.stderr.write(f"background {entry.id()} is {rep.status}, not VERIFIED\n")
        return EXIT_BACKGROUND
    sampler = entry.sampler(mp)
    b = entry.params.get("b") if entry.kind == "T1" else None
    prob = AmplitudeProblem(background=sampler, A=mp.A, x0=args.x0, t0=args.t0,
                            pi0=args.pi0, psi_shift_b=b)
    sol = amplitude_quadrature(prob, args.t_end, n=args.n)
    rows = list(zip(sol.times.tolist(), sol.xs.tolist(), sol.psi.tolist(),
                    sol.E.tolist(), sol.F.tolist(), sol.pi.tolist()))
    out = Path(args.out) if args.out else Path("wavefront.csv")
    summary = {"pi_c": sol.pi_c, "pi_c_err": sol.pi_c_err, "shock_time": sol.shock_time,
               "shock_time_err": sol.shock_time_err}
    files = {
        out: _csv(["t", "x", "psi", "E", "F", "pi"], rows),
        Path(str(out) + ".summary.json"): _dump_json(summary),
    }
    params = {"background": args.background, "A": args.A, "D": args.D,
              "pi0": args.pi0, "x0": args.x0, "t0": args.t0, "t_end": args.t_end,
              "n": args.n, "out": str(out)}
    _emit("wavefront", argv, params, files, stdout_obj=summary)
    return EXIT_OK


# ---------------------------------------------------------------- catalog


def cmd_catalog(args, argv) -> int:
    lines = []
    for kind, (keys, summary) in sorted(CATALOG_ROWS.items()):
        req = ", ".join(keys) or "(no parameters)"
        lines.append(f"{kind:8s} params: {req:28s} {summary}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trafficflow",
                                description="Traffic flow model verification toolkit")
    p.add_argument("--version", action="version", version=f"trafficflow {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model(sp):
        sp.add_argument("--A", type=float, default=1.0, help="speed variance")
        sp.add_argument("--D", type=float, default=0.0, help="viscosity")

    def add_region(sp):
        sp.add_argument("--x0", type=float, default=None)
        sp.add_argument("--x1", type=float, default=None)
        sp.add_argument("--nx", type=int, default=41)
        sp.add_argument("--t0", type=float, default=None)
        sp.add_argument("--t1", type=float, default=None)
        sp.add_argument("--nt", type=int, default=41)

    sp = sub.add_parser("verify", help="verify a catalog entry against the governing system")
    sp.add_argument("entry", help="entry spec, e.g. 'T1?p1=1&p2=2&b=1'")
    add_model(sp)
    add_region(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("simulate", help="finite-volume run or exact-surface emission")
    sp.add_argument("--ic", required=True, help="entry spec or csv field (x,rho,u)")
    sp.add_argument("--scheme", choices=SCHEMES, default="rusanov")
    sp.add_argument("--nx", type=int, default=None,
                    help="cells of an entry IC's grid (default 100); a csv IC sets its own")
    sp.add_argument("--cfl", type=float, default=0.45)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--x1", type=float, default=None)
    sp.add_argument("--t0", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--bc", choices=BCS, default="periodic")
    add_model(sp)
    sp.add_argument("--snap", default=None, help="comma-separated snapshot times")
    sp.add_argument("--surface", nargs=2, metavar=("XSPEC", "TSPEC"), default=None,
                    help="exact-entry surface emission, e.g. x:-5:5:101 t:0.5:3:101")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("lie", help="Lie algebra queries")
    lsub = sp.add_subparsers(dest="lie_cmd", required=True)
    q = lsub.add_parser("commutator")
    q.add_argument("a")
    q.add_argument("b")
    q = lsub.add_parser("killing")
    q.add_argument("w")
    q = lsub.add_parser("adjoint")
    q.add_argument("eps")
    q.add_argument("w")
    q = lsub.add_parser("classify")
    q.add_argument("w")
    q = lsub.add_parser("transform")
    q.add_argument("--generator", type=int, required=True, choices=(1, 2, 3, 4))
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--entry", required=True)
    add_model(q)
    q.add_argument("--at", action="append", default=None, metavar="X,T")
    q.add_argument("--verify", action="store_true")
    q.add_argument("--tol", type=float, default=1e-8)
    q = lsub.add_parser("ic")
    q.add_argument("--e", required=True, help="e1,e2,e3,e4")
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--branch", choices=("reciprocal", "power"), required=True)

    sp = sub.add_parser("conserve", help="symmetry-generated conserved vectors on a grid")
    sp.add_argument("--entry", required=True)
    sp.add_argument("--which", choices=("S1", "S2", "S3", "S4"), required=True)
    sp.add_argument("--c", required=True, help="c1,c2,c3")
    add_model(sp)
    add_region(sp)
    sp.add_argument("--h-step", dest="h_step", type=float, default=1e-3)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("wavefront", help="C1-wave amplitude along the fastest characteristic")
    sp.add_argument("--background", required=True)
    add_model(sp)
    sp.add_argument("--pi0", type=float, required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("catalog", help="catalog inspection")
    sp.add_argument("catalog_cmd", choices=("list",))

    return p


_DISPATCH = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "lie": cmd_lie,
    "conserve": cmd_conserve,
    "wavefront": cmd_wavefront,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; map onto the documented code.
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args, list(argv))
    except (UsageError, OSError) as e:  # OSError: a path that cannot be read or written
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except ValueError as e:  # DomainError is a ValueError
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
