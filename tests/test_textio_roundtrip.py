"""Property-based round trip of the NFT text format, seeded so that every
run draws the same examples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nftdev import Nft, Transition, parse_nft, serialize_nft

# any character the format can carry in a token: no whitespace (which also
# excludes every line break), no comment sign, no surrogate halves
_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="#").filter(
    lambda c: not c.isspace()
)
_TOKENS = st.text(_CHARS, min_size=1, max_size=5)


@st.composite
def _nfts(draw):
    alphabet = draw(st.frozensets(_CHARS.filter(lambda c: c != "-"), min_size=1, max_size=4))
    states = draw(st.lists(_TOKENS, min_size=1, max_size=5, unique=True))
    ids = st.integers(0, len(states) - 1)
    word = st.text(st.sampled_from(sorted(alphabet)), max_size=3)  # "" is the empty word
    transitions = draw(st.lists(st.builds(Transition, ids, word, word, ids), max_size=8))
    return Nft(
        states=tuple(states),
        alphabet=alphabet,
        initials=draw(st.frozensets(ids, max_size=3)),
        finals=draw(st.frozensets(ids, max_size=3)),
        transitions=tuple(transitions),
        name=draw(_TOKENS),
    )


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_nfts())
def test_parse_inverts_serialize(t):
    text = serialize_nft(t)
    back = parse_nft(text)
    assert back == t
    assert serialize_nft(back) == text
