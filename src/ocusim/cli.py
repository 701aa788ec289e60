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
    if args.out_dir:
        path = Path(args.out_dir)
    elif cfg is not None and cfg.get("output", "dir"):
        path = Path(cfg.get("output", "dir"))
    else:
        path = Path("out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_input(loader, path):
    """Run a file loader; an unreadable input file is a schema error (exit 2)."""
    from .config import ConfigError

    try:
        return loader(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_kernels(cfg):
    """Kernel list from [fit] kernels: library names or [kernel:NAME] sections."""
    from .config import ConfigError
    from .kernels import STANDARD_KERNELS

    names = cfg.require("fit", "kernels").replace(",", " ").split()
    out = []
    for name in names:
        section = f"kernel:{name}"
        if cfg.has(section):
            size = cfg.getcount(section, "size", 3)
            values = cfg.getfloats(section, "values")
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


def _holdout_image(cfg):
    from .config import ConfigError
    from .data import synthetic_contrast_image, synthetic_image

    choice = cfg.get("fit", "holdout", "contrast")
    size = cfg.getcount("fit", "holdout_size", 256)
    if choice == "none":
        return None
    if choice == "contrast":
        return synthetic_contrast_image(size, cfg.getnatural("fit", "holdout_seed", 5))
    if choice == "scene":
        return synthetic_image(size, cfg.getnatural("fit", "holdout_seed", 11))
    path = Path(choice)
    if not path.is_file():
        raise ConfigError(f"{cfg.path}: key [fit] holdout file not found: {choice}")
    from .pgm import read_pgm
    return _load_input(read_pgm, path)


def cmd_fit_kernel(args) -> int:
    import numpy as np

    from .checkpoint import save_ocu_model
    from .config import Config, ConfigError, geometry_from_config
    from .optics import OcuModel, write_geometry_csv
    from .srp import FitConfig, fit_kernel, generate_pattern, write_history_csv

    cfg = Config.load(args.config)
    kernels = _resolve_kernels(cfg)
    h = kernels[0][1].shape[0]
    for name, k in kernels:
        if k.shape[0] != h:
            raise ConfigError(
                f"{cfg.path}: kernel {name} size {k.shape[0]} differs from {h}")
    geometry = geometry_from_config(cfg, num_inputs=h * h)

    seed = args.seed if args.seed is not None else cfg.getnatural("fit", "seed", 7)
    fit_cfg = FitConfig(
        epochs=cfg.getcount("fit", "epochs", 4000),
        learning_rate=cfg.getpositive("fit", "learning_rate", 1e-3),
        seed=seed,
        restarts=cfg.getcount("fit", "restarts", 1),
    )
    pattern = generate_pattern(cfg.getnatural("fit", "pattern_seed", 1),
                               cfg.getcount("fit", "pattern_size", 128))
    stride = cfg.getcount("fit", "stride", 1)
    holdout = _holdout_image(cfg)
    out = _out_dir(args, cfg)

    rows = []
    for name, kernel in kernels:
        proto = OcuModel.random_init(geometry, np.random.Generator(np.random.PCG64(seed)))
        result = fit_kernel(proto, kernel, pattern, fit_cfg, holdout=holdout, stride=stride)
        save_ocu_model(out / f"{name}.ckpt", result.model, {
            "kernel": name,
            "seed": seed,
            "epochs": fit_cfg.epochs,
            "final_loss": repr(result.history[-1][1]),
            "train_mse": repr(result.train_mse),
        })
        with open(out / f"{name}_history.csv", "w") as f:
            write_history_csv(result.history, f)
        with open(out / f"{name}_geometry.csv", "w") as f:
            write_geometry_csv(result.model, f)
        rows.append((name, result.train_mse, result.holdout_mse))
        holdout_txt = "" if result.holdout_mse is None else f"  holdout_mse={result.holdout_mse:.6f}"
        print(f"{name}: train_mse={result.train_mse:.6f}{holdout_txt}")

    with open(out / "summary.csv", "w") as f:
        f.write("kernel,train_mse,holdout_mse\n")
        for name, train_mse, holdout_mse in rows:
            f.write(f"{name},{train_mse!r},{'' if holdout_mse is None else repr(holdout_mse)}\n")
    if any(r[2] is not None for r in rows):
        avg = sum(r[2] for r in rows if r[2] is not None) / sum(r[2] is not None for r in rows)
        print(f"average holdout mse: {avg:.6f}")
    return 0


def cmd_convolve(args) -> int:
    import numpy as np

    from .checkpoint import load_ocu_model
    from .config import ConfigError
    from .optics import balanced_detect, ocu_forward
    from .pgm import read_pgm, write_pgm
    from .tensorize import im2col

    if not Path(args.checkpoint).is_file():
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    if not Path(args.image).is_file():
        raise ConfigError(f"image not found: {args.image}")
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    model, _ = _load_input(load_ocu_model, args.checkpoint)
    img = _load_input(read_pgm, args.image)
    h2 = model.geometry.num_inputs
    h = int(round(h2 ** 0.5))
    if h * h != h2:
        raise ConfigError(f"checkpoint geometry num_inputs {h2} is not square")
    if min(img.shape) < h:
        raise ConfigError(f"image {img.shape} smaller than kernel window {h}")
    if img.shape[0] != img.shape[1]:
        raise ConfigError("convolve expects a square image")

    patches = im2col(img, h, args.stride)
    y = balanced_detect(ocu_forward(model, patches.values), model.detection_gain)
    fm = y.reshape(patches.grid, patches.grid)
    out = _out_dir(args)
    with open(out / "feature_map.csv", "w") as f:
        for row in fm:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    span = fm.max() - fm.min()
    viewable = (fm - fm.min()) / span if span > 0 else np.zeros_like(fm)
    write_pgm(out / "feature_map.pgm", viewable)
    print(f"feature map {fm.shape[0]}x{fm.shape[1]} written to {out}")
    return 0


def _load_classification_dataset(cfg, split: str):
    from .config import ConfigError, class_ids, parse_key
    from .data import load_cifar4, load_idx, synthetic_blobs

    kind = cfg.require("dataset", "kind")
    if kind == "idx":
        images = cfg.require("dataset", f"{split}_images")
        labels = cfg.require("dataset", f"{split}_labels")
        for path in (images, labels):
            if not Path(path).is_file():
                raise ConfigError(f"{cfg.path}: dataset file not found: {path}")
        ds = load_idx(images, labels, split)
    elif kind == "cifar4":
        classes = parse_key(cfg.path, "[dataset] classes", cfg.get("dataset", "classes"),
                            class_ids, (0, 1, 2, 3))
        paths = cfg.require("dataset", f"{split}_batches").split()
        for path in paths:
            if not Path(path).is_file():
                raise ConfigError(f"{cfg.path}: dataset file not found: {path}")
        ds = load_cifar4(paths, classes, split=split)
    elif kind == "blobs":
        count = cfg.getcount("dataset", f"{split}_count", 512 if split == "train" else 128)
        size = cfg.getcount("dataset", "size", 8)
        if size < 2:
            raise ConfigError(f"{cfg.path}: key [dataset] size must be >= 2, got {size}")
        ds = synthetic_blobs(count, size,
                             seed=cfg.getnatural("dataset", "seed", 0) + (0 if split == "train" else 1))
    else:
        raise ConfigError(f"{cfg.path}: key [dataset] kind must be idx, cifar4, or blobs")
    limit = cfg.getnatural("dataset", f"limit_{split}", 0)
    if limit:
        ds.images = ds.images[:limit]
        ds.labels = ds.labels[:limit]
    return ds


def _write_confusion(path, matrix) -> None:
    with open(path, "w") as f:
        for row in matrix:
            f.write(",".join(str(int(v)) for v in row) + "\n")


def cmd_train_classifier(args) -> int:
    from .checkpoint import save_network
    from .config import Config, ConfigError, geometry_from_config
    from .networks import TrainConfig, build_classifier, train_classifier
    from .srp import write_history_csv

    cfg = Config.load(args.config)
    train = _load_classification_dataset(cfg, "train")
    test = _load_classification_dataset(cfg, "test")
    n_classes = int(max(train.labels.max(), test.labels.max())) + 1
    channels = train.images.shape[1]
    image_size = train.images.shape[-1]
    cfg_channels = cfg.getint("network", "channels", channels)
    if cfg_channels != channels:
        raise ConfigError(
            f"{cfg.path}: key [network] channels = {cfg_channels} but dataset has {channels}")

    kernel_size = cfg.getcount("network", "kernel_size", 3)
    if image_size <= kernel_size:   # the feature map must fit the 2x2 pool
        key = "[dataset] size" if cfg.get("dataset", "kind") == "blobs" else "[network] kernel_size"
        raise ConfigError(f"{cfg.path}: key {key}: {image_size}x{image_size} images are too "
                          f"small for kernel_size {kernel_size} and the 2x2 pool; "
                          f"they need at least {kernel_size + 1} pixels a side")
    geometry = geometry_from_config(cfg, num_inputs=kernel_size * kernel_size)
    hidden = cfg.getcounts("network", "hidden", (128, 64))
    pool = cfg.getpool("network", "pool", "mean")
    seed = args.seed if args.seed is not None else cfg.getnatural("train", "seed", 0)
    net_seed = cfg.getnatural("network", "seed", seed)
    topo = {
        "kernels": cfg.getcount("network", "kernels", 4),
        "channels": channels,
        "image_size": image_size,
        "n_classes": n_classes,
        "seed": net_seed,
        "optical": "true" if cfg.getbool("network", "optical", True) else "false",
        "hidden": " ".join(str(v) for v in hidden),
        "pool": pool,
    }
    net = build_classifier(
        geometry, topo["kernels"], channels, image_size, n_classes,
        seed=net_seed, optical=topo["optical"] == "true",
        hidden=hidden,
        pool_mode=pool,
    )
    train_cfg = TrainConfig(
        epochs=cfg.getcount("train", "epochs", 100),
        batch_size=cfg.getcount("train", "batch_size", 32),
        learning_rate=cfg.getpositive("train", "learning_rate", 1e-3),
        seed=seed,
        eval_every=cfg.getnatural("train", "eval_every", 0),
    )
    result = train_classifier(net, train.images, train.labels,
                              test.images, test.labels, n_classes, train_cfg)

    out = _out_dir(args, cfg)
    save_network(out / "classifier.ckpt", net, "classifier", geometry, topo, {
        "seed": seed, "epochs": train_cfg.epochs,
        "final_loss": repr(result.history[-1][1]),
        "accuracy": repr(result.accuracy),
    })
    with open(out / "history.csv", "w") as f:
        write_history_csv(result.history, f, "epoch,train_loss,test_accuracy")
    _write_confusion(out / "confusion.csv", result.confusion)
    print(f"test accuracy: {result.accuracy:.4f}")
    return 0


def _load_denoise_images(cfg, section: str, key_prefix: str):
    from .config import ConfigError
    from .data import synthetic_corpus

    kind = cfg.get(section, f"{key_prefix}kind", "synthetic")
    if kind == "synthetic":
        count = cfg.getcount(section, f"{key_prefix}count", 40)
        size = cfg.getcount(section, f"{key_prefix}size", 180)
        seed = cfg.getnatural(section, f"{key_prefix}seed", 21)
        return synthetic_corpus(count, size, seed)
    if kind == "pgm-dir":
        from .data import load_grayscale_dir
        directory = Path(cfg.require(section, f"{key_prefix}dir"))
        if not directory.is_dir():
            raise ConfigError(f"{cfg.path}: directory not found: {directory}")
        resize = cfg.getnatural(section, f"{key_prefix}resize", 0)
        try:
            return load_grayscale_dir(directory, resize if resize else None)
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}: {exc}") from None
    raise ConfigError(f"{cfg.path}: key [{section}] {key_prefix}kind must be "
                      "synthetic or pgm-dir")


def cmd_train_denoiser(args) -> int:
    from .checkpoint import save_network
    from .config import Config, ConfigError, geometry_from_config
    from .networks import DenoiseTrainConfig, build_denoiser, train_denoiser
    from .srp import write_history_csv

    cfg = Config.load(args.config)
    images = _load_denoise_images(cfg, "dataset", "")
    kernel_size = cfg.getcount("network", "kernel_size", 3)
    if kernel_size % 2 == 0:
        raise ConfigError(f"{cfg.path}: key [network] kernel_size must be odd for the "
                          f"denoiser to keep the image size, got {kernel_size}")
    geometry = geometry_from_config(cfg, num_inputs=kernel_size * kernel_size)
    seed = args.seed if args.seed is not None else cfg.getnatural("denoise", "seed", 0)
    net_seed = cfg.getnatural("network", "seed", seed)
    topo = {
        "input_kernels": cfg.getcount("network", "input_kernels", 8),
        "middle_kernels": cfg.getcount("network", "middle_kernels", 8),
        "middle_layers": cfg.getnatural("network", "middle_layers", 1),
        "in_channels": 1,
        "seed": net_seed,
        "optical": "true" if cfg.getbool("network", "optical", True) else "false",
    }
    net = build_denoiser(
        geometry, topo["input_kernels"], topo["middle_kernels"], 1,
        middle_layers=topo["middle_layers"], seed=net_seed,
        optical=topo["optical"] == "true",
    )
    sigma = cfg.getnonnegative("denoise", "sigma", 20.0)
    train_cfg = DenoiseTrainConfig(
        epochs=cfg.getcount("denoise", "epochs", 12),
        batch_size=cfg.getcount("denoise", "batch_size", 16),
        learning_rate=cfg.getpositive("denoise", "learning_rate", 1e-3),
        seed=seed,
        patch=cfg.getcount("denoise", "patch", 40),
        crops_per_image=cfg.getcount("denoise", "crops_per_image", 64),
    )
    result = train_denoiser(net, images, sigma, train_cfg)

    out = _out_dir(args, cfg)
    save_network(out / "denoiser.ckpt", net, "denoiser", geometry, topo, {
        "seed": seed, "sigma": sigma, "epochs": train_cfg.epochs,
        "final_loss": repr(result.history[-1][1]),
    })
    with open(out / "history.csv", "w") as f:
        write_history_csv(result.history, f, "epoch,train_loss")
    print(f"final training loss: {result.history[-1][1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_network
    from .config import Config, ConfigError

    cfg = Config.load(args.config)
    ckpt_path = cfg.require("eval", "checkpoint")
    if not Path(ckpt_path).is_file():
        raise ConfigError(f"{cfg.path}: checkpoint not found: {ckpt_path}")
    net, kind, topo, meta = _load_input(load_network, ckpt_path)
    out = _out_dir(args, cfg)

    if kind == "classifier":
        from .networks import evaluate_classifier
        test = _load_classification_dataset(cfg, "test")
        got = test.images.shape[1:]
        want = (int(topo["channels"]), int(topo["image_size"]), int(topo["image_size"]))
        if got != want:
            blobs = cfg.get("dataset", "kind") == "blobs" and got[1:] != want[1:]
            raise ConfigError(f"{cfg.path}: {'key [dataset] size: ' if blobs else ''}dataset "
                              f"images are {got} (channels, size, size), but the checkpoint "
                              f"was trained on {want}")
        n_classes = int(topo["n_classes"])
        acc, conf, _ = evaluate_classifier(net, test.images, test.labels, n_classes)
        _write_confusion(out / "confusion.csv", conf)
        with open(out / "metrics.csv", "w") as f:
            f.write("metric,value\n")
            f.write(f"accuracy,{acc!r}\n")
        print(f"accuracy: {acc:.4f}")
        return 0

    from .networks import _denoised_images, _psnr_table
    from .pgm import write_pgm
    images = _load_denoise_images(cfg, "eval", "test_")
    sigma = cfg.getnonnegative("eval", "sigma", 20.0)
    seed = args.seed if args.seed is not None else cfg.getnatural("eval", "seed", 0)

    def saved(denoised):
        for i, (img, noisy, estimate) in enumerate(denoised):
            write_pgm(out / f"denoised_{i}.pgm", estimate)
            yield img, noisy, estimate

    rows, noisy_mean, denoised_mean = _psnr_table(
        saved(_denoised_images(net, images, sigma, seed)))
    with open(out / "psnr.csv", "w") as f:
        f.write("image,psnr_noisy,psnr_denoised\n")
        for i, (p_noisy, p_denoised) in enumerate(rows):
            f.write(f"{i},{p_noisy!r},{p_denoised!r}\n")
        f.write(f"mean,{noisy_mean!r},{denoised_mean!r}\n")
    print(f"noisy {noisy_mean:.2f} dB -> denoised {denoised_mean:.2f} dB "
          f"({denoised_mean - noisy_mean:+.2f} dB)")
    return 0


def cmd_perf(args) -> int:
    from .config import Config
    from .perf import PerfSpec, report_rows

    cfg = Config.load(args.config)
    spec = PerfSpec(
        kernel_size=cfg.getcount("perf", "kernel_size", 3),
        channels=cfg.getcount("perf", "channels", 1),
        kernels=cfg.getcount("perf", "kernels", 1),
        rate=cfg.getpositive("perf", "rate_gbaud", 100.0) * 1e9,
        pixels=cfg.getnonnegative("perf", "pixels", 8e6),
        bit_depth=cfg.getcount("perf", "bit_depth", 8),
        energy_per_bit=cfg.getnonnegative("perf", "energy_fj_per_bit", 100.0) * 1e-15,
        detector_power=cfg.getnonnegative("perf", "detector_power_mw", 100.0) * 1e-3,
    )
    rows = report_rows(spec)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:.6g} {unit}")
    out = _out_dir(args, cfg)
    with open(out / "perf.csv", "w") as f:
        f.write(",".join(r[0] for r in rows) + "\n")
        f.write(",".join(repr(r[1]) for r in rows) + "\n")
    return 0


def cmd_export_geometry(args) -> int:
    from .config import ConfigError
    from .optics import write_geometry_csv

    if not Path(args.checkpoint).is_file():
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    from .checkpoint import read_checkpoint
    ckpt = _load_input(read_checkpoint, args.checkpoint)
    out = _out_dir(args)
    if ckpt.kind == "ocu":
        from .checkpoint import load_ocu_model
        model, _ = _load_input(load_ocu_model, args.checkpoint)
        path = out / "geometry.csv"
        with open(path, "w") as f:
            write_geometry_csv(model, f)
        print(f"geometry table written to {path}")
        return 0
    if ckpt.kind in ("classifier", "denoiser"):
        from .checkpoint import load_network
        from .nn import OclLayer
        from .optics import OcuModel
        net, _, _, _ = _load_input(load_network, args.checkpoint)
        count = 0
        for li, layer in enumerate(net.layers):
            if not isinstance(layer, OclLayer):
                continue
            gains = layer.gains()
            for m in range(layer.q):
                for n in range(layer.c):
                    model = OcuModel(layer.geometry, layer.phases.value[m, n],
                                     float(gains[m, n]))
                    path = out / f"geometry_layer{li}_ock{m}_ocu{n}.csv"
                    with open(path, "w") as f:
                        write_geometry_csv(model, f)
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

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
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
    p.add_argument("--stride", type=int, default=1)
    common(p, config=False)
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
    common(p)
    p.set_defaults(handler=cmd_perf)

    p = sub.add_parser("export-geometry", help="emit fabrication CSV from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    common(p, config=False)
    p.set_defaults(handler=cmd_export_geometry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_threads(args.threads)
    from .config import ConfigError
    from .optim import TrainingDiverged
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
