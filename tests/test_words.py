import numpy as np
import pytest

from charforms import (
    GroupRingElement,
    Presentation,
    Word,
    fox_derivative,
    parse_word,
    render_word,
)
from charforms.errors import (
    IndexOutOfRange,
    InvalidInput,
    UnknownGenerator,
    WordSyntaxError,
)


def random_word(rng, p, max_len):
    length = rng.integers(0, max_len + 1)
    letters = [(int(rng.integers(0, p)), int(rng.choice([-1, 1])))
               for _ in range(length)]
    return Word.of(letters)


class TestWord:
    def test_free_reduction(self):
        w = Word.of([(0, 1), (1, 1), (1, -1), (0, -1), (2, 1)])
        assert w == Word.generator(2)

    def test_reduction_cascades(self):
        w = Word.of([(0, 1), (1, 1), (1, -1), (0, -1)])
        assert w == Word.identity()

    def test_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = random_word(rng, 4, 12)
            assert w * w.inverse() == Word.identity()
            assert w.inverse() * w == Word.identity()

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v, w = (random_word(rng, 3, 8) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_rejects_unreduced_letters(self):
        with pytest.raises(ValueError):
            Word(((0, 1), (0, -1)))


class TestParsing:
    def test_basic(self):
        w = parse_word("a b a^-1 b^-1", ["a", "b"])
        assert w == Presentation.surface(1).relators[0]

    def test_star_separator_and_powers(self):
        assert parse_word("a^2 * b^-2", ["a", "b"]) == Word.of(
            [(0, 1), (0, 1), (1, -1), (1, -1)])

    def test_uppercase_shorthand(self):
        assert parse_word("a B", ["a", "b"]) == Word.of([(0, 1), (1, -1)])

    def test_shorthand_disabled_for_long_names(self):
        with pytest.raises(UnknownGenerator):
            parse_word("A1", ["a1", "b1"])

    def test_shorthand_rejects_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("A^2", ["a", "b"])

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_word("a c", ["a", "b"])

    def test_malformed_token(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^b", ["a", "b"])

    def test_render_roundtrip(self):
        rng = np.random.default_rng(2)
        names = ["a", "b", "c"]
        for _ in range(30):
            w = random_word(rng, 3, 15)
            assert parse_word(render_word(w, names), names) == w


class TestPresentation:
    def test_surface_relator(self):
        pres = Presentation.surface(2)
        assert pres.generator_names == ("a1", "b1", "a2", "b2")
        r = pres.relators[0]
        assert len(r) == 8
        assert all(sum(s for g, s in r.letters if g == k) == 0 for k in range(4))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a", "a"), ())

    def test_relator_index_bound(self):
        with pytest.raises(IndexOutOfRange):
            Presentation(("a",), (Word.generator(3),))

    def test_json_roundtrip(self):
        pres = Presentation.surface(2)
        assert Presentation.from_json(pres.to_json()) == pres

    @pytest.mark.parametrize("data", [
        {"generators": "ab", "relators": ["a b A B"]},   # would be a and b
        {"generators": ["a", "b"], "relators": "aBAb"},  # four one-letter relators
        {"generators": ["a", 2]},
        {"generators": ["a", "b"], "relators": [["a", "b"]]},
    ])
    def test_from_json_needs_lists_of_strings(self, data):
        with pytest.raises(InvalidInput, match="must be a list of strings"):
            Presentation.from_json(data)


class TestGroupRing:
    def test_ring_axioms_on_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = [GroupRingElement.of({random_word(rng, 3, 6): int(c)})
                  for c in rng.integers(-3, 4, size=3)]
            x, y, z = xs
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z

    def test_zero_coefficients_dropped(self):
        w = Word.generator(0)
        one = GroupRingElement.word(w)
        assert one - one == GroupRingElement.zero()


class TestFoxDerivative:
    def test_generator_rules(self):
        x = Word.generator(0)
        assert fox_derivative(x, 0) == GroupRingElement.one()
        assert fox_derivative(x, 1) == GroupRingElement.zero()
        assert fox_derivative(x.inverse(), 0) == GroupRingElement.of(
            {x.inverse(): -1})

    def test_product_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            u = random_word(rng, 3, 10)
            v = random_word(rng, 3, 10)
            for k in range(3):
                lhs = fox_derivative(u * v, k)
                rhs = (fox_derivative(u, k)
                       + GroupRingElement.word(u) * fox_derivative(v, k))
                assert lhs == rhs

    def test_fundamental_identity(self):
        # w - 1 = sum_k fox(w, k) (x_k - 1), exact integer arithmetic
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            w = random_word(rng, p, 40)
            total = GroupRingElement.zero()
            for k in range(p):
                xk = GroupRingElement.word(Word.generator(k)) - GroupRingElement.one()
                total = total + fox_derivative(w, k) * xk
            expected = GroupRingElement.word(w) - GroupRingElement.one()
            assert total == expected
