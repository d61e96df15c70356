"""Command-line driver.

    okc check FILE...            parse and validate, print diagnostics
    okc compile FILE --out DIR   check, then emit the model bundle
    okc explain FILE INSTANCE    print derivation traces for an instance
    okc kernel                   print the kernel listing

Exit codes: 0 clean, 1 error diagnostics, 2 warnings with --werror,
3 usage or I/O problems.  Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .bundle import CompileRefusedError, compile_bundle, emit_bundle
from .checks import check_w1, validate
from .frontend import parse, render
from .kernel import kernel_ontology, merge_with_kernel
from .model import Diagnostic, Ontology, Severity, SourceText, has_errors, sort_diagnostics
from .reasoner import compute_closure, explain_instance, instance_component, saturate

EXIT_CLEAN = 0
EXIT_ERRORS = 1
EXIT_WARNINGS = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


@functools.cache  # argparse's parser is a web of cycles: built once, it is never garbage
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="okc", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--werror", action="store_true",
                       help="exit 2 when warnings are reported")

    p_check = sub.add_parser("check", help="parse and validate model files")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    add_common(p_check)

    p_compile = sub.add_parser("compile", help="check and emit the model bundle")
    p_compile.add_argument("file", metavar="FILE")
    p_compile.add_argument("--out", required=True, metavar="DIR")
    p_compile.add_argument("--at", type=int, default=None, metavar="NAT",
                           help="snapshot time (default: the latest label time)")
    add_common(p_compile)

    p_explain = sub.add_parser("explain", help="print derivation traces")
    p_explain.add_argument("file", metavar="FILE")
    p_explain.add_argument("instance", metavar="INSTANCE")

    sub.add_parser("kernel", help="print the kernel listing")
    return parser


def _emit_diagnostics(diags: Sequence[Diagnostic], fmt: str, stream: TextIO) -> None:
    if not diags:
        return
    if fmt == "json":
        stream.write(json.dumps([d.to_json() for d in diags],
                                indent=2, sort_keys=True) + "\n")
    else:
        for d in diags:
            stream.write(d.render() + "\n")


def _exit_for(diags: Sequence[Diagnostic], werror: bool) -> int:
    if has_errors(diags):
        return EXIT_ERRORS
    if werror and any(d.severity is Severity.WARNING for d in diags):
        return EXIT_WARNINGS
    return EXIT_CLEAN


def _load_file(path: str) -> tuple[Optional[Ontology], list[Diagnostic]]:
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    decls, parse_diags = parse(text, path)
    if parse_diags:
        return None, parse_diags
    return merge_with_kernel(decls, SourceText(path, text))


def _cmd_check(args, stderr: TextIO) -> int:
    diags: list[Diagnostic] = []
    for path in args.files:
        onto, stage_diags = _load_file(path)
        diags.extend(stage_diags)
        if onto is not None:
            diags.extend(validate(onto))
    diags = sort_diagnostics(diags)
    _emit_diagnostics(diags, args.format, stderr)
    return _exit_for(diags, args.werror)


def _cmd_compile(args, stderr: TextIO) -> int:
    if args.at is not None and args.at < 0:
        raise _UsageError("--at must be non-negative")
    onto, diags = _load_file(args.file)
    if onto is None:
        _emit_diagnostics(diags, args.format, stderr)
        return EXIT_ERRORS
    snapshot = args.at if args.at is not None else onto.max_label_time()
    try:
        bundle, compile_diags = compile_bundle(onto, snapshot)
    except CompileRefusedError as err:
        _emit_diagnostics(err.diagnostics, args.format, stderr)
        return EXIT_ERRORS
    _emit_diagnostics(compile_diags, args.format, stderr)
    emit_bundle(bundle, args.out)
    return _exit_for(compile_diags, args.werror)


def _cmd_explain(args, stdout: TextIO, stderr: TextIO) -> int:
    onto, diags = _load_file(args.file)
    if onto is None:
        _emit_diagnostics(diags, "text", stderr)
        return EXIT_ERRORS
    try:
        closure = compute_closure(onto)
    except ValueError:  # a cycle, which W1 reports
        _emit_diagnostics(check_w1(onto), "text", stderr)
        return EXIT_ERRORS
    if args.instance not in onto.instances:
        raise _UsageError(f"instance '{args.instance}' is not declared in {args.file}")
    component = instance_component(onto, args.instance)
    stdout.write(explain_instance(saturate(component, closure), args.instance))
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None,
         stdout: TextIO = sys.stdout, stderr: TextIO = sys.stderr) -> int:
    collecting = gc.isenabled()
    gc.disable()  # okc's records form no reference cycles, so there is nothing to collect
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "check":
            return _cmd_check(args, stderr)
        if args.command == "compile":
            return _cmd_compile(args, stderr)
        if args.command == "explain":
            return _cmd_explain(args, stdout, stderr)
        stdout.write(render(kernel_ontology()))
        return EXIT_CLEAN
    except (_UsageError, OSError, UnicodeDecodeError) as err:
        stderr.write(f"okc: {err}\n")
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
