"""Command-line front end.

Three subcommands share the flat dotted-key config format:

- ``process``: enhance a recorded far-end / microphone WAV pair.
- ``simulate``: synthesize a scene, run one engine, emit metric curves;
  supports a one-axis parameter sweep.
- ``compare``: run two or more named engine configs on the identical scene.

``audio_io.parse_flat_config`` reads the config; ``sim.scene_from_mapping``
and ``pipeline.engine_from_mapping`` build the scene and engine from it.

Exit codes: 0 success, 1 usage error (bad arguments, unreadable inputs,
invalid config), 2 runtime error. Every engine config and every sweep
point's scene spec is built before the first scene is synthesized or any
output written. All randomness flows from the scene seed (or ``--seed``), so
repeated runs on one machine write byte-identical CSV and WAV outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audio_io import (
    AudioFormatError,
    SampleRateError,
    check_keys,
    parse_flat_config,
    read_wav,
    write_result_csv,
    write_wav,
)
from .metrics import erle, steady_state, terle
from .pipeline import engine_from_mapping, run
from .sim import SCENE_PREFIXES, scene_from_mapping, synthesize_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_TOP_PREFIXES = {*SCENE_PREFIXES, "engine", "sweep"}


class UsageError(Exception):
    """Bad command line, unreadable input, or invalid configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="naec", description="online semi-blind echo cancellation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for outputs (default: current directory)")

    p = sub.add_parser("process", help="enhance a far-end / microphone WAV pair")
    p.add_argument("far_wav", type=Path)
    p.add_argument("mic_wav", type=Path)
    common(p)
    for name, text in (("simulate", "run a synthetic scene and emit metrics"),
                       ("compare", "run several engine configs on one scene")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    try:
        mapping = parse_flat_config(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    unknown = {k for k in mapping if k.split(".", 1)[0] not in _TOP_PREFIXES}
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {sorted(unknown)}")
    return mapping


def _read_input(path: Path):
    try:
        return read_wav(path)
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except (AudioFormatError, SampleRateError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, raising an invalid config or input as UsageError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as exc:  # includes AudioFormatError, SampleRateError
        raise UsageError(str(exc)) from exc


def _engine_section_names(mapping) -> list:
    names = []
    for key in mapping:
        parts = key.split(".")
        if parts[0] == "engine" and len(parts) >= 3 and parts[1] not in names:
            names.append(parts[1])
    return names


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _stats_dict(stats) -> dict:
    return {
        "n_frames": stats.n_frames,
        "skipped_bins": stats.skipped_bins,
        "broken_bins": stats.broken_bins,
        "elapsed_s": stats.elapsed_s,
        "realtime_factor": stats.realtime_factor,
    }


def _cmd_process(args, out_dir: Path) -> None:
    far = _read_input(args.far_wav)
    mic = _read_input(args.mic_wav)
    if len(far) != len(mic):
        raise UsageError(
            f"length mismatch: {args.far_wav} has {len(far)} samples, "
            f"{args.mic_wav} has {len(mic)}"
        )
    mapping = _load_config(args.config)
    bad = [k for k in mapping if not k.startswith("engine.")]
    if bad:
        raise UsageError(f"process accepts only engine.* config keys, got {sorted(bad)}")
    enhanced, stats = run(far, mic, _checked(engine_from_mapping, mapping))
    write_wav(enhanced, out_dir / "enhanced.wav")
    _write_json({"command": "process", "stats": _stats_dict(stats)},
                out_dir / "summary.json")
    print(f"frames processed: {stats.n_frames}")
    print(f"skipped bins: {stats.skipped_bins}")
    print(f"real-time factor: {stats.realtime_factor:.2f}")


def _run_engine(scene, comps, engine, all_curves, suffix, label):
    """Run and score one engine: curves go to ``all_curves`` under ``suffix``,
    a line after ``label`` to stdout; returns the output and summary entry."""
    enhanced, stats = run(scene.far_end, comps.microphone, engine)
    curves = {"erle": erle(comps.microphone, enhanced)}
    if len(comps.near) and comps.near.samples.any():
        curves["terle"] = terle(comps.echo, enhanced, comps.near)
    ss = {f"{name}_db": steady_state(curve) for name, curve in curves.items()}
    for name, curve in curves.items():
        all_curves[name + suffix] = curve
    shown = " ".join(f"{k}={v:.2f} dB" for k, v in sorted(ss.items()))
    print(f"{label}: {shown}")
    return enhanced, {"steady_state": ss, "stats": _stats_dict(stats)}


def _write_scene_wavs(out_dir: Path, far, comps, enhanced, suffix="") -> None:
    write_wav(far, out_dir / f"far{suffix}.wav")
    write_wav(comps.microphone, out_dir / f"microphone{suffix}.wav")
    write_wav(comps.echo, out_dir / f"echo{suffix}.wav")
    if comps.near.samples.any():
        write_wav(comps.near, out_dir / f"near{suffix}.wav")
    if enhanced is not None:
        write_wav(enhanced, out_dir / f"enhanced{suffix}.wav")


def _cmd_simulate(args, out_dir: Path) -> None:
    if args.config is None:
        raise UsageError("simulate requires --config")
    mapping = _load_config(args.config)
    if _engine_section_names(mapping):
        raise UsageError("simulate uses plain engine.* keys; use compare for "
                         "multiple engine sections")
    _checked(check_keys, mapping, "sweep", ("key", "values"))
    sweep_key = mapping.get("sweep.key")
    sweep_values = mapping.get("sweep.values")
    if (sweep_key is None) != (sweep_values is None):
        raise UsageError("sweep.key and sweep.values must be given together")
    if sweep_key is not None and sweep_key.split(".", 1)[0] not in _TOP_PREFIXES - {"sweep"}:
        raise UsageError(f"sweep.key {sweep_key!r} is not a scene or engine key")

    grid = sweep_values.split() if sweep_values else [None]
    if not grid:
        raise UsageError("sweep.values is empty")
    runs = [mapping if token is None else {**mapping, sweep_key: token} for token in grid]
    engines = [_checked(engine_from_mapping, m) for m in runs]  # all checked before any work
    scenes = [_checked(scene_from_mapping, m, args.config.parent, args.seed) for m in runs]
    all_curves = {}
    results = []
    for token, scene, engine in zip(grid, scenes, engines):
        comps = synthesize_scene(scene)
        tag = "" if token is None else f"[{sweep_key}={token}]"
        enhanced, entry = _run_engine(scene, comps, engine, all_curves,
                                      tag, f"simulate{tag}")
        results.append({"grid": {} if token is None else {sweep_key: token}, **entry})
        if token is None:
            _write_scene_wavs(out_dir, scene.far_end, comps, enhanced)
    write_result_csv(all_curves, out_dir / "metrics.csv")
    _write_json({
        "command": "simulate",
        "seed": args.seed,
        "sweep": None if sweep_key is None
        else {"key": sweep_key, "values": grid},
        "results": results,
    }, out_dir / "summary.json")


def _cmd_compare(args, out_dir: Path) -> None:
    if args.config is None:
        raise UsageError("compare requires --config")
    mapping = _load_config(args.config)
    if any(k.startswith("sweep.") for k in mapping):
        raise UsageError("sweep is only supported by simulate")
    names = _engine_section_names(mapping)
    if len(names) < 2:
        raise UsageError("compare requires at least two engine.<name>.* sections")
    plain = [k for k in mapping if k.startswith("engine.") and len(k.split(".")) == 2]
    if plain:
        raise UsageError(f"compare uses only engine.<name>.* keys, got {sorted(plain)}")

    configs = [_checked(engine_from_mapping, mapping, f"engine.{name}") for name in names]
    scene = _checked(scene_from_mapping, mapping, args.config.parent, args.seed)
    comps = synthesize_scene(scene)
    _write_scene_wavs(out_dir, scene.far_end, comps, enhanced=None)
    all_curves = {}
    engines = []
    for name, config in zip(names, configs):
        enhanced, entry = _run_engine(scene, comps, config, all_curves, f".{name}", name)
        write_wav(enhanced, out_dir / f"enhanced.{name}.wav")
        engines.append({"name": name, **entry})
    write_result_csv(all_curves, out_dir / "metrics.csv")
    _write_json({"command": "compare", "seed": args.seed, "engines": engines},
                out_dir / "summary.json")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = args.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "process":
            _cmd_process(args, out_dir)
        elif args.command == "simulate":
            _cmd_simulate(args, out_dir)
        else:
            _cmd_compare(args, out_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
