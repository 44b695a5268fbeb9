"""One fracrel CLI invocation, as the benchmark's child process.

    python child.py <run|calibrate> <config.json> <stamp.json> <trace 0|1>

Imports ``fracrel.cli``, notes the monotonic clock when ``load_config``
returns (the end of set-up), and hands the arguments to
``fracrel.cli.main``.  With trace 1 the tracer is installed first and its
per-layer totals are written to the stamp file with the set-up time.
The exit status is the CLI's own.
"""
import json
import sys
import time


def main(argv):
    command, config, stamp_path, trace = argv
    import fracrel.cli as cli

    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    stamp = {}
    load_config = cli.load_config

    def stamped_load_config(path):
        cfg = load_config(path)
        stamp["setup_done"] = time.monotonic()
        return cfg

    cli.load_config = stamped_load_config
    try:
        return cli.main([command, config])
    finally:
        if tracer is not None:
            stamp["trace"] = tracer.summary()
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
