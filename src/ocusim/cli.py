"""Command-line front end: batch experiment runs that emit files.

Subcommands: fit-kernel, convolve, train-classifier, train-denoiser, eval,
perf, export-geometry.  Exit codes: 0 success, 2 configuration/schema error,
3 runtime or training failure.  Heavy imports happen inside the handlers so
--threads can pin the BLAS pool before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    if "numpy" in sys.modules:
        print("warning: numpy already loaded; --threads may not take effect",
              file=sys.stderr)
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _out_dir(args, cfg=None) -> Path:
    """Create and return the output directory: --out-dir, else [output] dir,
    else out.  With a config this ends the command's set-up, before any
    training or output: a key that nothing has read is unknown (ConfigError).
    The directories it makes are recorded in ``args.made_dirs``, deepest
    first, so that ``main`` can remove them if the command fails."""
    from .config import read_input

    configured = None
    if cfg is not None:
        configured = cfg.get("output", "dir")
        cfg.check_all_read()
    key = f"{cfg.path}: key [output] dir" if configured and not args.out_dir else "--out-dir"
    path = Path(args.out_dir or configured or "out")
    args.made_dirs = [d for d in (path, *path.parents) if not d.exists()]
    read_input(key, path.mkdir, parents=True, exist_ok=True)
    return path


def write_table(path, rows, header=()) -> None:
    """Write a CSV table: the header, if given, then one line per row, every
    line ending in \\n.  A field is empty for None, the repr of a float
    (numpy's float64 is one) and the str of anything else."""
    def field(value):
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    with open(path, "w", newline="") as f:
        if header:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(field, row)) + "\n")


def _seed(args, cfg, section: str, default: int = 0) -> int:
    """--seed, else [section] seed, which is read (and checked) either way."""
    from .config import natural

    seed = cfg.typed(section, "seed", natural, default)
    return seed if args.seed is None else args.seed


def _resolve_kernels(cfg):
    """Kernel list from [fit] kernels: library names or [kernel:NAME] sections.

    Each name also names the kernel's output files, so the list must be
    non-empty, name no kernel twice and hold no path separator."""
    from .config import ConfigError, count, finite_row
    from .kernels import STANDARD_KERNELS

    names = cfg.require("fit", "kernels").replace(",", " ").split()
    if not names:
        raise ConfigError(f"{cfg.path}: key [fit] kernels names no kernel")
    out = []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{cfg.path}: key [fit] kernels names kernel {name!r} twice")
        if "/" in name or "\\" in name:
            raise ConfigError(
                f"{cfg.path}: key [fit] kernels: kernel name {name!r} names its output "
                "files and cannot hold a path separator")
        section = f"kernel:{name}"
        if cfg.has(section):
            size = cfg.typed(section, "size", count, 3)
            values = cfg.typed(section, "values", finite_row)
            if len(values) != size * size:
                raise ConfigError(
                    f"{cfg.path}: key [{section}] values must hold {size * size} numbers")
            out.append((name, values.reshape(size, size)))
        elif name in STANDARD_KERNELS:
            out.append((name, STANDARD_KERNELS[name]))
        else:
            raise ConfigError(
                f"{cfg.path}: key [fit] kernels names unknown kernel {name!r} "
                f"(no [kernel:{name}] section either)")
    return out


def _check_holds_kernel(cfg, key: str, shape, h: int) -> None:
    """A ConfigError naming [fit] ``key`` unless an image of ``shape`` holds an h x h window."""
    from .config import ConfigError

    if min(shape) < h:
        raise ConfigError(f"{cfg.path}: key [fit] {key}: a {shape[0]}x{shape[1]} image "
                          f"cannot hold the {h}x{h} kernel")


def _holdout_image(cfg, h: int):
    """The [fit] holdout image: none, the synthetic contrast image of side
    holdout_size, or a PGM file."""
    from .config import count, read_input
    from .data import synthetic_contrast_image
    from .pgm import read_pgm

    choice = cfg.get("fit", "holdout", "contrast")
    if choice == "none":
        return None
    if choice == "contrast":
        key = "holdout_size"
        # the side, when the config sets one, is the first argument; the
        # default side and the seed are synthetic_contrast_image's own
        image = synthetic_contrast_image(*cfg.settings("fit", holdout_size=count).values())
    else:
        key = "holdout"
        image = read_input(f"{cfg.path}: key [fit] holdout", read_pgm, choice)
    _check_holds_kernel(cfg, key, image.shape, h)
    return image


def cmd_fit_kernel(args) -> int:
    import numpy as np

    from .checkpoint import save_ocu_model
    from .config import Config, ConfigError, count, geometry_from_config, natural, positive
    from .optics import GEOMETRY_COLUMNS, OcuModel, geometry_records
    from .srp import FitConfig, fit_kernel, generate_pattern

    cfg = Config.load(args.config)
    kernels = _resolve_kernels(cfg)
    h = kernels[0][1].shape[0]
    for name, k in kernels:
        if k.shape[0] != h:
            raise ConfigError(
                f"{cfg.path}: kernel {name} size {k.shape[0]} differs from {h}")
    geometry = geometry_from_config(cfg, h * h)

    seed = _seed(args, cfg, "fit", 7)
    fit_cfg = FitConfig(seed=seed, **cfg.settings(
        "fit", epochs=count, learning_rate=positive, restarts=count))
    pattern_size = cfg.typed("fit", "pattern_size", count, 128)
    _check_holds_kernel(cfg, "pattern_size", (pattern_size, pattern_size), h)
    pattern = generate_pattern(cfg.typed("fit", "pattern_seed", natural, 1), pattern_size)
    holdout = _holdout_image(cfg, h)
    out = _out_dir(args, cfg)

    rows = []
    for name, kernel in kernels:
        proto = OcuModel.random_init(geometry, np.random.Generator(np.random.PCG64(seed)))
        result = fit_kernel(proto, kernel, pattern, fit_cfg, holdout=holdout)
        save_ocu_model(out / f"{name}.ckpt", result.model, {
            "kernel": name,
            "seed": seed,
            "epochs": fit_cfg.epochs,
            "final_loss": repr(result.history[-1][1]),
            "train_mse": repr(result.train_mse),
        })
        write_table(out / f"{name}_history.csv", result.history, ("epoch", "loss", "mse"))
        write_table(out / f"{name}_geometry.csv", geometry_records(result.model),
                    GEOMETRY_COLUMNS)
        rows.append((name, result.train_mse, result.holdout_mse))
        holdout_txt = "" if result.holdout_mse is None else f"  holdout_mse={result.holdout_mse:.6f}"
        print(f"{name}: train_mse={result.train_mse:.6f}{holdout_txt}")

    write_table(out / "summary.csv", rows, ("kernel", "train_mse", "holdout_mse"))
    if any(r[2] is not None for r in rows):
        avg = sum(r[2] for r in rows if r[2] is not None) / sum(r[2] is not None for r in rows)
        print(f"average holdout mse: {avg:.6f}")
    return 0


def cmd_convolve(args) -> int:
    import numpy as np

    from .checkpoint import load_ocu_model
    from .config import ConfigError, read_input
    from .pgm import read_pgm, write_pgm
    from .srp import feature_map

    model, _ = read_input("--checkpoint", load_ocu_model, args.checkpoint)
    img = read_input("--image", read_pgm, args.image)
    h2 = model.geometry.num_inputs
    h = int(round(h2 ** 0.5))
    if h * h != h2:
        raise ConfigError(f"checkpoint geometry num_inputs {h2} is not square")
    if min(img.shape) < h:
        raise ConfigError(f"image {img.shape} smaller than kernel window {h}")
    if img.shape[0] != img.shape[1]:
        raise ConfigError("convolve expects a square image")

    fm = feature_map(model, img)
    out = _out_dir(args)
    write_table(out / "feature_map.csv", fm)
    span = fm.max() - fm.min()
    viewable = (fm - fm.min()) / span if span > 0 else np.zeros_like(fm)
    write_pgm(out / "feature_map.pgm", viewable)
    print(f"feature map {fm.shape[0]}x{fm.shape[1]} written to {out}")
    return 0


def _load_classification_dataset(cfg, split: str):
    """The [dataset] ``split`` set; an empty one cannot train or be scored (ConfigError)."""
    from .config import ConfigError, class_ids, count, natural, read_input
    from .data import load_cifar4, load_idx, synthetic_blobs

    kind = cfg.require("dataset", "kind")
    if kind == "idx":
        images = cfg.require("dataset", f"{split}_images")
        labels = cfg.require("dataset", f"{split}_labels")
        ds = read_input(f"{cfg.path}: keys [dataset] {split}_images and {split}_labels",
                        load_idx, images, labels, split)
    elif kind == "cifar4":
        classes = cfg.settings("dataset", classes=class_ids)
        paths = cfg.require("dataset", f"{split}_batches").split()
        ds = read_input(f"{cfg.path}: key [dataset] {split}_batches",
                        load_cifar4, paths, split=split, **classes)
    elif kind == "blobs":
        n = cfg.typed("dataset", f"{split}_count", count, 512 if split == "train" else 128)
        size = cfg.typed("dataset", "size", count, 8)
        if size < 2:
            raise ConfigError(f"{cfg.path}: key [dataset] size must be >= 2, got {size}")
        seed = cfg.typed("dataset", "seed", natural, 0)
        ds = synthetic_blobs(n, size, seed=seed + (0 if split == "train" else 1))
    else:
        raise ConfigError(f"{cfg.path}: key [dataset] kind must be idx, cifar4, or blobs")
    if not len(ds):
        raise ConfigError(f"{cfg.path}: [dataset] {split} set holds no images")
    limit = cfg.typed("dataset", f"limit_{split}", natural, 0)
    if 0 < limit < len(ds):
        # copies, so that the rest of the set is freed
        ds.images = ds.images[:limit].copy()
        ds.labels = ds.labels[:limit].copy()
    return ds


def cmd_train_classifier(args) -> int:
    from .checkpoint import save_network
    from .config import (Config, ConfigError, boolean, count, counts, geometry_from_config,
                         natural, positive)
    from .networks import TrainConfig, build_classifier, train_classifier

    cfg = Config.load(args.config)
    train = _load_classification_dataset(cfg, "train")
    test = _load_classification_dataset(cfg, "test")
    n_classes = int(max(train.labels.max(), test.labels.max())) + 1
    image_size = train.images.shape[-1]
    kernel_size = cfg.typed("network", "kernel_size", count, 3)
    if image_size <= kernel_size:   # the feature map must fit the 2x2 pool
        key = "[dataset] size" if cfg.get("dataset", "kind") == "blobs" else "[network] kernel_size"
        raise ConfigError(f"{cfg.path}: key {key}: {image_size}x{image_size} images are too "
                          f"small for kernel_size {kernel_size} and the 2x2 pool; "
                          f"they need at least {kernel_size + 1} pixels a side")
    geometry = geometry_from_config(cfg, kernel_size * kernel_size)
    seed = _seed(args, cfg, "train")
    net = build_classifier(
        geometry, cfg.typed("network", "kernels", count, 4), train.images.shape[1], image_size,
        n_classes, seed=cfg.typed("network", "seed", natural, seed),
        **cfg.settings("network", optical=boolean, hidden=counts))
    train_cfg = TrainConfig(seed=seed, **cfg.settings(
        "train", epochs=count, batch_size=count, learning_rate=positive, eval_every=natural))
    out = _out_dir(args, cfg)
    result = train_classifier(net, train.images, train.labels,
                              test.images, test.labels, n_classes, train_cfg)

    save_network(out / "classifier.ckpt", net, {
        "seed": seed, "epochs": train_cfg.epochs,
        "final_loss": repr(result.history[-1][1]),
        "accuracy": repr(result.accuracy),
    })
    write_table(out / "history.csv", result.history, ("epoch", "train_loss", "test_accuracy"))
    write_table(out / "confusion.csv", result.confusion)
    print(f"test accuracy: {result.accuracy:.4f}")
    return 0


def _load_denoise_images(cfg, section: str, key_prefix: str):
    from .config import ConfigError, count, natural, read_input
    from .data import synthetic_corpus

    kind = cfg.get(section, f"{key_prefix}kind", "synthetic")
    if kind == "synthetic":
        n = cfg.typed(section, f"{key_prefix}count", count, 40)
        size = cfg.typed(section, f"{key_prefix}size", count, 180)
        seed = cfg.typed(section, f"{key_prefix}seed", natural, 21)
        return synthetic_corpus(n, size, seed)
    if kind == "pgm-dir":
        from .data import load_grayscale_dir
        directory = cfg.require(section, f"{key_prefix}dir")
        resize = cfg.typed(section, f"{key_prefix}resize", natural, 0)
        return read_input(f"{cfg.path}: key [{section}] {key_prefix}dir",
                          load_grayscale_dir, directory, resize if resize else None)
    raise ConfigError(f"{cfg.path}: key [{section}] {key_prefix}kind must be "
                      "synthetic or pgm-dir")


def cmd_train_denoiser(args) -> int:
    from .checkpoint import save_network
    from .config import (Config, ConfigError, boolean, count, geometry_from_config, natural,
                         nonnegative, positive)
    from .networks import DenoiseTrainConfig, build_denoiser, train_denoiser

    cfg = Config.load(args.config)
    images = _load_denoise_images(cfg, "dataset", "")
    kernel_size = cfg.typed("network", "kernel_size", count, 3)
    if kernel_size % 2 == 0:
        raise ConfigError(f"{cfg.path}: key [network] kernel_size must be odd for the "
                          f"denoiser to keep the image size, got {kernel_size}")
    geometry = geometry_from_config(cfg, kernel_size * kernel_size)
    seed = _seed(args, cfg, "denoise")
    net = build_denoiser(
        geometry, seed=cfg.typed("network", "seed", natural, seed),
        **cfg.settings("network", input_kernels=count, middle_kernels=count,
                       middle_layers=natural, optical=boolean))
    sigma = cfg.typed("denoise", "sigma", nonnegative, 20.0)
    train_cfg = DenoiseTrainConfig(seed=seed, **cfg.settings(
        "denoise", epochs=count, batch_size=count, learning_rate=positive, patch=count,
        crops_per_image=count))
    side = min(min(img.shape) for img in images)
    if not kernel_size // 2 < train_cfg.patch <= side:   # reflection padding needs pad < patch
        raise ConfigError(f"{cfg.path}: key [denoise] patch {train_cfg.patch} must lie between "
                          f"{kernel_size // 2 + 1} and the smallest training image side {side}")
    crops, batch = len(images) * train_cfg.crops_per_image, train_cfg.batch_size
    if net.topology["middle_layers"] and (batch == 1 or crops % batch == 1):
        raise ConfigError(f"{cfg.path}: key [denoise] batch_size {batch} leaves a batch of "
                          f"one of the {crops} crops; batch normalization needs at least 2")
    out = _out_dir(args, cfg)
    result = train_denoiser(net, images, sigma, train_cfg)

    save_network(out / "denoiser.ckpt", net, {
        "seed": seed, "sigma": sigma, "epochs": train_cfg.epochs,
        "final_loss": repr(result.history[-1][1]),
    })
    write_table(out / "history.csv", result.history, ("epoch", "train_loss"))
    print(f"final training loss: {result.history[-1][1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_network
    from .config import Config, ConfigError, natural, nonnegative, read_input

    cfg = Config.load(args.config)
    net, _ = read_input(f"{cfg.path}: key [eval] checkpoint",
                        load_network, cfg.require("eval", "checkpoint"))

    if net.kind == "classifier":
        from .networks import evaluate_classifier
        if args.seed is not None:
            raise ConfigError("--seed: a classifier's eval draws no random numbers; only a "
                              "denoiser's eval reads it, as its noise seed")
        test = _load_classification_dataset(cfg, "test")
        got = test.images.shape[1:]
        trained = net.topology
        want = (trained["channels"], trained["image_size"], trained["image_size"])
        if got != want:
            blobs = cfg.get("dataset", "kind") == "blobs" and got[1:] != want[1:]
            raise ConfigError(f"{cfg.path}: {'key [dataset] size: ' if blobs else ''}dataset "
                              f"images are {got} (channels, size, size), but the checkpoint "
                              f"was trained on {want}")
        n_classes = trained["n_classes"]
        if (test.labels >= n_classes).any():
            raise ConfigError(f"{cfg.path}: the test labels reach {int(test.labels.max())}, but "
                              f"the checkpoint has topo.n_classes = {n_classes} "
                              f"(labels 0-{n_classes - 1})")
        out = _out_dir(args, cfg)
        acc, conf, _ = evaluate_classifier(net, test.images, test.labels, n_classes)
        write_table(out / "confusion.csv", conf)
        write_table(out / "metrics.csv", [("accuracy", acc)], ("metric", "value"))
        print(f"accuracy: {acc:.4f}")
        return 0

    from .networks import _denoised_images, _psnr_table
    from .pgm import write_pgm
    images = _load_denoise_images(cfg, "eval", "test_")
    pad = net.layers[0].pad     # every convolution reflect-pads its input by pad pixels
    if min(min(img.shape) for img in images) <= pad:
        key = ("test_size" if cfg.get("eval", "test_kind", "synthetic") == "synthetic" else
               "test_resize" if cfg.typed("eval", "test_resize", natural, 0) else "test_dir")
        raise ConfigError(f"{cfg.path}: key [eval] {key}: the test images must be at least "
                          f"{pad + 1} pixels a side for the reflection pad")
    sigma = cfg.typed("eval", "sigma", nonnegative, 20.0)
    seed = _seed(args, cfg, "eval")
    out = _out_dir(args, cfg)

    def saved(denoised):
        for i, (img, noisy, estimate) in enumerate(denoised):
            write_pgm(out / f"denoised_{i}.pgm", estimate)
            yield img, noisy, estimate

    rows, noisy_mean, denoised_mean = _psnr_table(
        saved(_denoised_images(net, images, sigma, seed)))
    table = [(i, *row) for i, row in enumerate(rows)] + [("mean", noisy_mean, denoised_mean)]
    write_table(out / "psnr.csv", table, ("image", "psnr_noisy", "psnr_denoised"))
    print(f"noisy {noisy_mean:.2f} dB -> denoised {denoised_mean:.2f} dB "
          f"({denoised_mean - noisy_mean:+.2f} dB)")
    return 0


def cmd_perf(args) -> int:
    from .config import Config, count, nonnegative, positive
    from .perf import PerfSpec, report_rows

    cfg = Config.load(args.config)
    given = cfg.settings("perf", kernel_size=count, channels=count, kernels=count,
                         rate_gbaud=positive, pixels=nonnegative, bit_depth=count,
                         energy_fj_per_bit=nonnegative, detector_power_mw=nonnegative)
    # the config states these in GBaud, fJ/bit and mW; PerfSpec in SI units
    for key, field, scale in (("rate_gbaud", "rate", 1e9),
                              ("energy_fj_per_bit", "energy_per_bit", 1e-15),
                              ("detector_power_mw", "detector_power", 1e-3)):
        if key in given:
            given[field] = given.pop(key) * scale
    spec = PerfSpec(**given)
    out = _out_dir(args, cfg)
    rows = report_rows(spec)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:.6g} {unit}")
    names, values, _ = zip(*rows)
    write_table(out / "perf.csv", [values], names)
    return 0


def cmd_export_geometry(args) -> int:
    from .checkpoint import read_checkpoint
    from .config import ConfigError, read_input
    from .optics import GEOMETRY_COLUMNS, geometry_records

    ckpt = read_input("--checkpoint", read_checkpoint, args.checkpoint)
    if ckpt.kind == "ocu":
        from .checkpoint import load_ocu_model
        model, _ = read_input("--checkpoint", load_ocu_model, args.checkpoint)
        path = _out_dir(args) / "geometry.csv"
        write_table(path, geometry_records(model), GEOMETRY_COLUMNS)
        print(f"geometry table written to {path}")
        return 0
    if ckpt.kind in ("classifier", "denoiser"):
        from .checkpoint import load_network
        from .nn import OclLayer
        from .optics import OcuModel
        net, _ = read_input("--checkpoint", load_network, args.checkpoint)
        if not net.topology["optical"]:
            raise ConfigError(f"{args.checkpoint}: key topo.optical is false: an electrical "
                              f"{net.kind} has no optical units to export")
        out = _out_dir(args)
        count = 0
        for li, layer in enumerate(net.layers):
            if not isinstance(layer, OclLayer):
                continue
            gains = layer.gains()
            for m in range(layer.q):
                for n in range(layer.c):
                    model = OcuModel(layer.geometry, layer.phases.value[m, n],
                                     float(gains[m, n]))
                    write_table(out / f"geometry_layer{li}_ock{m}_ocu{n}.csv",
                                geometry_records(model), GEOMETRY_COLUMNS)
                    count += 1
        print(f"{count} geometry tables written to {out}")
        return 0
    raise ConfigError(f"cannot export geometry from checkpoint kind {ckpt.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocusim",
        description="Diffractive optical convolution units: train and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS/OpenMP thread count (set before numpy loads)")
        p.add_argument("--out-dir", default=None, help="output directory")

    p = sub.add_parser("fit-kernel", help="train OCUs to emulate convolution kernels")
    common(p)
    p.set_defaults(handler=cmd_fit_kernel)

    p = sub.add_parser("convolve", help="run a trained OCU over an image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PGM image")
    common(p, config=False, seed=False)
    p.set_defaults(handler=cmd_convolve)

    p = sub.add_parser("train-classifier", help="train an optical classifier")
    common(p)
    p.set_defaults(handler=cmd_train_classifier)

    p = sub.add_parser("train-denoiser", help="train an optical residual denoiser")
    common(p)
    p.set_defaults(handler=cmd_train_denoiser)

    p = sub.add_parser("eval", help="evaluate a trained network checkpoint")
    common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("perf", help="throughput / energy calculator")
    common(p, seed=False)
    p.set_defaults(handler=cmd_perf)

    p = sub.add_parser("export-geometry", help="emit fabrication CSV from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    common(p, config=False, seed=False)
    p.set_defaults(handler=cmd_export_geometry)

    return parser


def _run(args) -> int:
    """The command's exit code, with its failure reported on stderr."""
    from .config import ConfigError
    from .optim import TrainingDiverged
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        # eval trains nothing: there the error is a network whose output overflows
        failed = "evaluation failed" if args.handler is cmd_eval else "training diverged"
        print(f"{failed}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    """Run one command.  A command that fails removes the output directories
    it made, if it left them empty."""
    args = build_parser().parse_args(argv)
    _apply_threads(args.threads)
    code = _run(args)
    if code:
        for made in getattr(args, "made_dirs", ()):
            try:
                made.rmdir()
            except OSError:     # not empty: the command wrote into it
                break
    return code


if __name__ == "__main__":
    sys.exit(main())
