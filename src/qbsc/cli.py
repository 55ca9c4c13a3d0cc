"""Command line driver for sessions, codebooks, bound sweeps and cheats.

Exit codes: 0 ok, 2 input error, 3 phase-order error, 4 certification
failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import adversary, codebook, harness, protocol1, protocol2
from .errors import CertificationError, InputError, ProtocolError
from .transcript import Transcript, format_float


def _parse_floats(text: str) -> list[float]:
    """Comma list of floats; ``a:b:count`` expands to a uniform grid."""
    values: list[float] = []
    for part in text.split(","):
        if ":" in part:
            start, stop, count = part.split(":")
            count = int(count)
            if count < 1:
                raise ValueError("grid count must be positive")
            if count == 1:
                values.append(float(start))
            else:
                step = (float(stop) - float(start)) / (count - 1)
                values.extend(float(start) + i * step for i in range(count))
        else:
            values.append(float(part))
    return values


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _load_transcript(path: str) -> Transcript:
    return Transcript.from_json(Path(path).read_text())


def _load_codebook(path: str) -> codebook.Codebook:
    return codebook.Codebook.from_json(Path(path).read_text())


def _maybe_codebook(path: str | None):
    return None if path is None else _load_codebook(path)


def _cmd_commit(args) -> int:
    transcript = harness.commit_session(
        protocol=args.protocol,
        bits=args.bits,
        seed=args.seed,
        theta=args.theta,
        r=args.r,
        codebook=_maybe_codebook(args.codebook),
    )
    Path(args.transcript).write_text(transcript.to_json())
    print(f"committed {len(args.bits)} bits -> {args.transcript}")
    return 0


def _cmd_unveil(args) -> int:
    transcript = harness.unveil_session(_load_transcript(args.transcript), args.bits)
    Path(args.transcript).write_text(transcript.to_json())
    print(f"unveiled {args.bits} -> {args.transcript}")
    return 0


def _cmd_verify(args) -> int:
    transcript = harness.verify_session(
        _load_transcript(args.transcript),
        mode=args.mode,
        codebook=_maybe_codebook(args.codebook),
    )
    Path(args.transcript).write_text(transcript.to_json())
    record = transcript.verify
    print(f"acceptance probability: {format_float(record['accept_probability'])}")
    if record["verdict"] is not None:
        print(f"verdict: {'accept' if record['verdict'] else 'reject'}")
    return 0


def _cmd_bounds(args) -> int:
    equality = []
    if args.epsilon is not None:
        for eps in _parse_floats(args.epsilon):
            for r in _parse_ints(args.r):
                equality.append((r, eps))
    report = harness.bound_sweep(
        thetas=_parse_floats(args.theta),
        ns=_parse_ints(args.n),
        rs=_parse_ints(args.r),
        equality_configs=equality,
        codebook=_maybe_codebook(args.codebook),
        cheat_samples=args.cheat_samples,
        seed=args.seed,
    )
    report.write(args.out, ("json", "csv") if args.format == "both" else (args.format,))
    summary = report.summary
    print(
        f"rows: {summary['rows']}  max sound violation: "
        f"{format_float(summary['max_sound_violation'])}  "
        f"sound pass: {summary['sound_pass']}  "
        f"uncovered all-bits rows: {summary['delta_uncovered_rows']}"
    )
    return 0 if summary["sound_pass"] else 5


def _cmd_codebook_gen(args) -> int:
    cb = codebook.generate_certified_codebook(
        n=args.n, epsilon_target=args.epsilon, k=args.k, seed=args.seed
    )
    Path(args.out).write_text(cb.to_json())
    print(
        f"certified codebook: n={cb.dim} k={cb.code.k} "
        f"epsilon={format_float(cb.epsilon_certified)} "
        f"attempts={cb.attempts} -> {args.out}"
    )
    return 0


def _cmd_codebook_info(args) -> int:
    cb = _load_codebook(args.codebook)
    print(f"dim (n): {cb.dim}")
    print(f"capacity (k): {codebook.capacity(cb)}")
    print(f"epsilon_certified: {format_float(cb.epsilon_certified)}")
    print(f"guess_string_exact: {format_float(protocol2.guess_string_exact(cb))}")
    print(f"seed: {cb.seed}")
    print(f"attempts: {cb.attempts}")
    print(f"prng: {codebook.PRNG_ID}")
    print(f"content_id: {cb.content_id()}")
    return 0


def _cmd_codebook_verify(args) -> int:
    # loading enumerated the weights and cross-checked the pairs; this adds
    # the regeneration of the generator from the recorded seed
    cb = _load_codebook(args.codebook)
    epsilon = codebook.verify_epsilon(cb)
    expected = codebook.generate_code(
        cb.code.k, cb.code.m, codebook.derive_seed(cb.seed, cb.attempts - 1)
    )
    if (expected.generator != cb.code.generator).any():
        raise CertificationError(
            "generator does not match regeneration from the recorded seed"
        )
    print(f"certified: epsilon = {format_float(epsilon)}")
    return 0


def _cmd_cheat(args) -> int:
    if args.protocol == 1:
        if args.theta is None:
            raise InputError("protocol 1 cheats need --theta")
        params = protocol1.SecurityParams(
            theta=args.theta, n=len(args.reveal), r=args.r
        )
        if args.strategy == "top-eigenvector":
            strategy = adversary.top_eigenvector_strategy(
                protocol1.reveal_operator(args.theta),
                bound=protocol1.binding_bound1(args.theta),
            )
        else:
            strategy = adversary.CheatStrategy(
                kind="custom-state", state=protocol1.encode_bit(0, args.theta)
            )
        transcript = adversary.run_cheat_session(
            1, strategy, args.reveal, args.seed, params=params
        )
    else:
        if args.codebook is None or args.cheat_set is None:
            raise InputError("protocol 2 cheats need --codebook and --cheat-set")
        cb = _load_codebook(args.codebook)
        indices = _parse_ints(args.cheat_set)
        cheat_set = protocol2.cheat_set_for(cb, indices)
        if args.strategy == "top-eigenvector":
            strategy = adversary.top_eigenvector_strategy(
                protocol2.q_operator(cb, cheat_set),
                bound=protocol2.binding_bound2(cheat_set.r, cb.epsilon_certified),
            )
        else:
            strategy = adversary.CheatStrategy(
                kind="custom-state", state=cb.state(indices[0])
            )
        transcript = adversary.run_cheat_session(
            2, strategy, args.reveal, args.seed, codebook=cb
        )
    Path(args.transcript).write_text(transcript.to_json())
    record = transcript.verify
    print(
        f"cheat session: exact acceptance "
        f"{format_float(record['accept_probability'])}, sampled verdict "
        f"{'accept' if record['verdict'] else 'reject'}"
    )
    if transcript.strategy["achieved"] is not None:
        print(f"strategy value: {format_float(transcript.strategy['achieved'])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbsc",
        description="Quantum bit string commitment sessions and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commit", help="commit a bit string")
    p.add_argument("--protocol", type=int, choices=(1, 2), default=1)
    p.add_argument("--bits", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--codebook")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", required=True)
    p.set_defaults(func=_cmd_commit)

    p = sub.add_parser("unveil", help="declare the committed bits")
    p.add_argument("--transcript", required=True)
    p.add_argument("--bits", required=True)
    p.set_defaults(func=_cmd_unveil)

    p = sub.add_parser("verify", help="measure the unveiled claim")
    p.add_argument("--transcript", required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--codebook")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="sweep bounds against exact oracles")
    p.add_argument("--theta", required=True, help="comma list or a:b:count grid")
    p.add_argument("--n", required=True, help="comma list of string lengths")
    p.add_argument("--r", required=True, help="comma list of withheld-bit targets")
    p.add_argument("--epsilon", help="comma list for equality configurations")
    p.add_argument("--codebook")
    p.add_argument("--cheat-samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("codebook", help="generate, verify or describe codebooks")
    csub = p.add_subparsers(required=True)
    g = csub.add_parser("gen", help="generate a certified codebook")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_codebook_gen)
    v = csub.add_parser("verify", help="re-certify a stored codebook")
    v.add_argument("--codebook", required=True)
    v.set_defaults(func=_cmd_codebook_verify)
    i = csub.add_parser("info", help="print codebook parameters")
    i.add_argument("--codebook", required=True)
    i.set_defaults(func=_cmd_codebook_info)

    p = sub.add_parser("cheat", help="run an adversarial session")
    p.add_argument("--protocol", type=int, choices=(1, 2), default=1)
    p.add_argument(
        "--strategy", choices=("top-eigenvector", "custom"), default="top-eigenvector"
    )
    p.add_argument("--reveal", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--codebook")
    p.add_argument("--cheat-set", dest="cheat_set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", required=True)
    p.set_defaults(func=_cmd_cheat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
