"""Random rounds through the protocol and the plaintext circuit at once,
refereed by the brute-force oracle and opening every key exactly twice;
a failure shrinks to a small case. A round holds 1, 3, 8 or 9 sessions,
so the engine's packed batch axis runs at one bit per byte, ragged
widths and whole bytes."""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depletion import oracle
from depletion import session as S


@st.composite
def rounds(draw):
    n = draw(st.integers(2, 4))
    u = draw(st.integers(1, 5))
    # the records' key pairs {k, ¬k} must be disjoint: 2^sigma >= 2*n*u,
    # or the key draw raises RandomnessFailure
    sigma = draw(st.integers(max(4, (2 * n * u).bit_length()), 16))
    # sparse ids exercise the map from party ids to circuit slots
    parties = tuple(sorted(draw(st.lists(st.integers(0, 11), min_size=n, max_size=n, unique=True))))
    kind = draw(st.sampled_from(["at-least-two", "at-least-m", "fixed-plus-m"]))
    # thresholds run one past the holder count, so some can never be met
    if kind == "at-least-two":
        variant = S.VariantSpec()
    elif kind == "at-least-m":
        variant = S.VariantSpec(kind, m=draw(st.integers(1, n + 1)))
    else:
        fixed = draw(st.lists(st.sampled_from(parties), min_size=1, max_size=n - 1, unique=True))
        m = draw(st.integers(1, n - len(fixed) + 1))
        variant = S.VariantSpec(kind, m=m, fixed_parties=tuple(fixed))
    mode = draw(st.sampled_from(["direct", "outsourced"]))
    servers = draw(st.integers(1, n - 1)) if mode == "outsourced" else 0
    # overlap: every party draws from one pool; a small pool shares more
    pool = draw(st.lists(
        st.integers(1, (1 << sigma) - 1), min_size=u, max_size=n * u, unique=True
    ))
    sessions = draw(st.sampled_from([1, 3, 8, 9]))
    batch = [
        {
            p: set(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=u, unique=True)))
            for p in parties
        }
        for _ in range(sessions)
    ]
    config = S.SessionConfig(
        parties=parties, sigma=sigma, variant=variant, mode=mode, n_servers=servers
    )
    return config, batch, draw(st.integers(0, 2**32 - 1))


@settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rounds())
def test_random_rounds_match_oracle(case):
    config, batch, seed = case
    result = S.run_sessions(config, batch, seed=seed, execution="both")
    spec = config.variant
    assert len(result.reports) == len(batch)
    # each record opens its chosen key twice, so the multiset's shape
    # says nothing about which values are shared
    for keys in result.opened_keys:
        assert set(Counter(keys).values()) == {2}
    for held, reports in zip(batch, result.reports):
        want = oracle.brute_force_shared(held, spec.kind, spec.m, frozenset(spec.fixed_parties))
        for p, values in held.items():
            assert set(reports[p].statuses) == values
            assert reports[p].shared == want[p]
