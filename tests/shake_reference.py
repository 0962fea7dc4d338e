"""The shake's coin draw in its list-rebuilding form, its body kept verbatim
as the reference that ``tests/test_vns.py`` holds ``vns._draw`` to, pick
for pick and coin for coin.

Each pass rebuilds the list of candidates it kept, and the pass and the
top-fill each test whether a candidate's group still holds two members.
"""

_DRAW_CAP_PER_REMOVAL = 100


def _draw(ranking: tuple[list[int], list[int], list[int]], n: int, r: int, rng) -> list[int]:
    """The r elements a shake isolates, drawn from :func:`_rank`'s output."""
    ranked, member_of, group_left = ranking
    group_left = list(group_left)  # the ranking is kept for later draws
    denom = min(n, 2 * r)
    selected: list[int] = []
    draws = 0
    cap = _DRAW_CAP_PER_REMOVAL * r
    while len(selected) < r and draws < cap and ranked:
        kept: list[int] = []
        position = 0
        for idx, elem in enumerate(ranked):
            if group_left[member_of[elem]] < 2:
                continue  # depleted by an earlier pick; drop silently
            position += 1
            if len(selected) == r or draws >= cap or position >= denom:
                # r picked, the cap hit, or zero odds from here on: the pass
                # ends, and a depleted candidate among the rest drops out later
                kept.extend(ranked[idx:])
                break
            draws += 1
            if rng.random() > position / denom:
                selected.append(elem)
                group_left[member_of[elem]] -= 1
            else:
                kept.append(elem)
        ranked = kept
    for elem in ranked:  # deterministic top-fill after the draw cap
        if len(selected) == r:
            break
        if group_left[member_of[elem]] >= 2:
            selected.append(elem)
            group_left[member_of[elem]] -= 1
    return selected
