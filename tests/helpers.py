"""Shared test helpers."""

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
