"""Shared test helpers."""

import resource
import subprocess
import sys

from noma_effrate.channel import AlphaMuChannel, ChannelPair


def relaxed_pair(strong: AlphaMuChannel, weak: AlphaMuChannel) -> ChannelPair:
    """ChannelPair that also permits omega_w == omega_s (the symmetric case).

    The production constructor requires a strictly weaker weak link; the
    symmetric pair is a useful closed-form anchor in tests.
    """
    pair = object.__new__(ChannelPair)
    object.__setattr__(pair, "strong", strong)
    object.__setattr__(pair, "weak", weak)
    if strong.alpha != weak.alpha or strong.mu != weak.mu:
        raise ValueError("both links must share alpha and mu")
    if weak.omega > strong.omega:
        raise ValueError("weak.omega must not exceed strong.omega")
    return pair


def run_cli(argv, seconds=5.0, address_mb=512):
    """Run ``noma_effrate.cli.main(argv)`` in a child process, killed after ``seconds`` of
    wall time, whose address space (RLIMIT_AS, set on the child only) is ``address_mb`` MB.

    Returns (exit code, stdout, stderr); the exit code is None, and both
    streams are empty, when the child was killed at the time limit.  A child
    that needs more memory than the limit fails its allocation and exits
    non-zero.  The package's own import takes about 100 MB of address space.
    """
    limit = address_mb << 20

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    code = "import sys; from noma_effrate.cli import main; sys.exit(main(sys.argv[1:]))"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, timeout=seconds, preexec_fn=limit_child,
        )
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr
