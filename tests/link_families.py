"""Input families the braid, T-link and Jones sweeps run over."""

from __future__ import annotations

import itertools
import random

from lorenzlinks.words import lyndon_words


def every_lobe_string(max_len):
    """Every nonempty string over {L, R} of at most ``max_len`` letters."""
    for length in range(1, max_len + 1):
        for letters in itertools.product("LR", repeat=length):
            yield "".join(letters)


def word_sets_up_to(total):
    """Every set of distinct canonical words with combined length <= total."""
    pool = list(lyndon_words(total))
    sets = []

    def extend(start, remaining, chosen):
        if chosen:
            sets.append(tuple(chosen))
        for idx in range(start, len(pool)):
            word = pool[idx]
            if len(word) > remaining:
                break  # pool is sorted by length
            chosen.append(word)
            extend(idx + 1, remaining - len(word), chosen)
            chosen.pop()

    extend(0, total, [])
    return sets


def seeded_links(count, seed=1729, max_len=12):
    """``count`` links of 2-5 distinct canonical words of at most ``max_len`` letters."""
    rng = random.Random(seed)
    pool = list(lyndon_words(max_len))
    return [tuple(rng.sample(pool, rng.randint(2, 5))) for _ in range(count)]


def t_link_params_up_to(budget):
    """Every T-link parameter list, the empty one included, with
    p_k + sum q <= budget: the strand count of its Lorenz braid."""
    out = [()]

    def extend(prev_p, q_sum, chosen):
        for p in range(prev_p + 1, budget):
            for q in range(1, budget - p - q_sum + 1):
                chosen.append((p, q))
                out.append(tuple(chosen))
                extend(p, q_sum + q, chosen)
                chosen.pop()

    extend(0, 0, [])
    return out
