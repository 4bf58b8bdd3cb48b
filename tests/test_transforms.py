import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotmesh.errors import BoundsError, ConfigurationError, UnsupportedFunctionError
from hotmesh.grid import Coord, make_grid
from hotmesh.transforms import (IDENTITY, KINDS, MIRROR_X, MIRROR_XY, MIRROR_Y, ROTATION,
                                CumulativeTransform, MigrationFunction, Permutation,
                                apply, as_permutation, compose, external_address,
                                fixed_points, internal_address, parse_function,
                                translate_x, translate_xy, translate_y)


def function_menu(grid):
    """Representative instance of every function kind valid on the grid."""
    fns = [IDENTITY, MIRROR_X, MIRROR_Y, MIRROR_XY,
           translate_x(0), translate_x(1), translate_x(grid.nx - 1), translate_x(-2),
           translate_y(1), translate_y(grid.ny + 3),
           translate_xy(1, 1), translate_xy(2, 3)]
    if grid.nx == grid.ny:
        fns.append(ROTATION)
    return fns


def test_rotation_matches_table_values():
    g = make_grid(4, 4)
    assert apply(ROTATION, Coord(0, 0), g) == Coord(3, 0)
    g5 = make_grid(5, 5)
    assert apply(ROTATION, Coord(2, 2), g5) == Coord(2, 2)  # center stays put


def test_mirror_matches_table_values():
    g = make_grid(4, 4)
    assert apply(MIRROR_X, Coord(0, 1), g) == Coord(3, 1)
    assert apply(MIRROR_Y, Coord(0, 1), g) == Coord(0, 2)
    assert apply(MIRROR_XY, Coord(0, 1), g) == Coord(3, 2)


def test_translation_wraps():
    g = make_grid(4, 4)
    assert apply(translate_x(0), Coord(1, 3), g) == Coord(1, 3)
    assert apply(translate_x(1), Coord(3, 2), g) == Coord(0, 2)
    assert apply(translate_y(1), Coord(3, 3), g) == Coord(3, 0)
    assert apply(translate_xy(1, 1), Coord(3, 3), g) == Coord(0, 0)
    # negative and oversized offsets reduce modulo the dimension
    assert apply(translate_x(-1), Coord(0, 0), g) == Coord(3, 0)
    assert apply(translate_x(5), Coord(0, 0), g) == Coord(1, 0)


def test_apply_agrees_with_independent_formula_everywhere():
    for n in (4, 5):
        g = make_grid(n, n)
        for c in g.cells():
            assert apply(ROTATION, c, g) == Coord(n - 1 - c.y, c.x)
            assert apply(MIRROR_X, c, g) == Coord(n - 1 - c.x, c.y)
            for off in (0, 1, 3, n):
                assert apply(translate_x(off), c, g) == Coord((c.x + off) % n, c.y)


def test_apply_rejects_out_of_bounds_and_non_square_rotation():
    g = make_grid(4, 4)
    with pytest.raises(BoundsError):
        apply(MIRROR_X, Coord(4, 0), g)
    with pytest.raises(UnsupportedFunctionError):
        apply(ROTATION, Coord(0, 0), make_grid(3, 4))
    with pytest.raises(UnsupportedFunctionError):
        as_permutation(ROTATION, make_grid(3, 4))


def test_every_function_is_a_bijection_on_small_grids():
    for nx in range(1, 9):
        for ny in range(1, 9):
            g = make_grid(nx, ny)
            for fn in function_menu(g):
                perm = as_permutation(fn, g)  # validates bijectivity itself
                images = {perm(c) for c in g.cells()}
                assert len(images) == g.n_cells
                for c in g.cells():
                    assert perm(c) == apply(fn, c, g)


def test_rotation_has_order_four():
    g = make_grid(4, 4)
    r = as_permutation(ROTATION, g)
    ident = Permutation.identity(g)
    acc = ident
    for k in range(1, 5):
        acc = r.after(acc)
        assert (acc == ident) == (k == 4)


def test_mirror_squares_to_identity():
    g = make_grid(5, 3)
    for fn in (MIRROR_X, MIRROR_Y, MIRROR_XY):
        m = as_permutation(fn, g)
        assert m.after(m) == Permutation.identity(g)


def test_mirror_xy_equals_rotation_twice_on_square_grids():
    for n in (4, 5):
        g = make_grid(n, n)
        r = as_permutation(ROTATION, g)
        assert as_permutation(MIRROR_XY, g) == r.after(r)


def test_translations_compose_modulo_dimension():
    g = make_grid(4, 4)
    for a in range(-2, 6):
        for b in range(-2, 6):
            lhs = as_permutation(translate_x(a), g).after(as_permutation(translate_x(b), g))
            rhs = as_permutation(translate_x((a + b) % g.nx), g)
            assert lhs == rhs


def test_compose_tracks_pointwise_composition():
    g = make_grid(4, 4)
    ct = CumulativeTransform.identity(g)
    ct = compose(ct, ROTATION, g)
    assert ct.composed == as_permutation(ROTATION, g)
    ct = compose(ct, MIRROR_X, g)
    for c in g.cells():
        assert ct.composed(c) == apply(MIRROR_X, apply(ROTATION, c, g), g)


def test_compose_with_inverse_recovers_identity():
    g = make_grid(4, 4)
    ct = compose(CumulativeTransform.identity(g), translate_xy(1, 2), g)
    ct = compose(ct, translate_xy(-1, -2), g)
    assert ct.composed == Permutation.identity(g)


def test_compose_rejects_mismatched_grid():
    g = make_grid(4, 4)
    ct = CumulativeTransform.identity(g)
    with pytest.raises(ConfigurationError):
        compose(ct, MIRROR_X, make_grid(5, 5))


def test_address_translation_round_trips():
    g = make_grid(4, 4)
    ct = CumulativeTransform.identity(g)
    assert external_address(ct, Coord(2, 1)) == Coord(2, 1)
    ct = compose(ct, ROTATION, g)
    assert external_address(ct, Coord(0, 0)) == Coord(3, 0)
    ct = compose(ct, translate_xy(1, 1), g)
    for c in g.cells():
        assert internal_address(ct, external_address(ct, c)) == c
        assert external_address(ct, internal_address(ct, c)) == c


def test_fixed_points():
    g5 = make_grid(5, 5)
    assert fixed_points(ROTATION, g5) == {Coord(2, 2)}
    assert fixed_points(ROTATION, make_grid(4, 4)) == set()
    assert fixed_points(MIRROR_X, g5) == {Coord(2, y) for y in range(5)}
    assert Coord(2, 2) in fixed_points(MIRROR_XY, g5)
    g = make_grid(3, 4)
    assert fixed_points(IDENTITY, g) == set(g.cells())


def test_permutation_rejects_non_bijection():
    g = make_grid(2, 2)
    with pytest.raises(ConfigurationError):
        Permutation(g, (0, 0, 1, 2))


def test_parse_function_tags():
    assert parse_function("rotation") == ROTATION
    assert parse_function(" mirror_xy ") == MIRROR_XY
    assert parse_function("translate_x") == translate_x(1)
    assert parse_function("translate_x:2") == translate_x(2)
    assert parse_function("translate_xy") == translate_xy(1, 1)
    assert parse_function("translate_xy:2:3") == translate_xy(2, 3)
    assert parse_function("translate_xy", dx=4, dy=5) == translate_xy(4, 5)
    assert parse_function("translate_xy:2:3", dy=7) == translate_xy(2, 7)


PARSE_FAULTS = (  # (tag, keyword offsets, the message's start)
    ("swirl", {}, "unknown migration function 'swirl'"),
    ("swirl:1", {"dx": 1}, "unknown migration function 'swirl:1'"),
    ("rotation:1", {}, "rotation takes no offsets"),
    ("rotation:a", {}, "rotation takes no offsets"),
    ("mirror_x", {"dx": 1}, "mirror_x takes no offsets"),
    ("identity", {"dx": 0, "dy": 0}, "identity takes no offsets"),
    ("translate_x:a", {"dy": 1}, "translate_x moves along one axis"),
    ("translate_x:a", {}, "bad offsets in function tag 'translate_x:a'"),
    ("translate_xy:a:1", {"dx": 1}, "bad offsets in function tag 'translate_xy:a:1'"),
    ("translate_x:", {}, "bad offsets in function tag 'translate_x:'"),
    ("translate_xy:1", {}, "wrong number of offsets in function tag 'translate_xy:1'"),
    ("translate_x:1:2", {}, "wrong number of offsets in function tag 'translate_x:1:2'"),
    ("translate_y:1:2", {"dy": 1}, "wrong number of offsets in function tag 'translate_y:1:2'"),
)


def test_parse_function_rejects_garbage():
    # unknown kind, offsets on a kind that takes none, an offset on the axis
    # not moved, a non-integer offset, a wrong count: the first that applies
    for tag, offsets, message in PARSE_FAULTS:
        with pytest.raises(ConfigurationError) as info:
            parse_function(tag, **offsets)
        assert str(info.value).startswith(message), (tag, offsets)
    with pytest.raises(ConfigurationError):
        MigrationFunction("sideways")


def test_parse_function_rejects_an_offset_on_the_axis_not_moved():
    for tag, offsets in (("translate_x", {"dy": 3}), ("translate_x:2", {"dy": 0}),
                         ("translate_x", {"dx": 1, "dy": 1}), ("translate_y", {"dx": 3}),
                         ("translate_y:-1", {"dx": 0})):
        with pytest.raises(ConfigurationError, match="no offset on the other"):
            parse_function(tag, **offsets)
    assert parse_function("translate_x", dx=3) == translate_x(3)
    assert parse_function("translate_y", dy=-2) == translate_y(-2)


def test_labels_name_only_the_offsets_a_kind_takes():
    labels = {kind: MigrationFunction(kind, 3, -2).label() for kind in KINDS}
    assert labels == {"identity": "identity", "rotation": "rotation", "mirror_x": "mirror_x",
                      "mirror_y": "mirror_y", "mirror_xy": "mirror_xy",
                      "translate_x": "translate_x:3", "translate_y": "translate_y:-2",
                      "translate_xy": "translate_xy:3:-2"}


def test_labels_round_trip_through_parse():
    for fn in (IDENTITY, ROTATION, MIRROR_X, MIRROR_XY, translate_x(3),
               translate_y(-1), translate_xy(2, 5)):
        assert parse_function(fn.label()) == fn


meshes = st.builds(make_grid, st.integers(1, 12), st.integers(1, 12))
square_meshes = st.integers(1, 12).map(lambda n: make_grid(n, n))
offsets = st.integers(-30, 30)
functions = st.builds(MigrationFunction, st.sampled_from(KINDS), offsets, offsets)


@given(square_meshes)
def test_rotation_to_the_fourth_is_the_identity(g):
    r = as_permutation(ROTATION, g)
    assert r.after(r).after(r).after(r) == Permutation.identity(g)


@given(meshes)
def test_mirrors_are_involutions(g):
    for fn in (MIRROR_X, MIRROR_Y, MIRROR_XY):
        m = as_permutation(fn, g)
        assert m.after(m) == Permutation.identity(g)


@given(meshes, offsets, offsets, offsets, offsets)
def test_translations_compose_by_adding_offsets(g, a, b, c, d):
    lhs = as_permutation(translate_xy(a, b), g).after(as_permutation(translate_xy(c, d), g))
    assert lhs == as_permutation(translate_xy((a + c) % g.nx, (b + d) % g.ny), g)
    assert lhs == as_permutation(translate_xy(a + c, b + d), g)


def reference_image(fn, c, g):
    """The transform table of the module docstring, one cell at a time."""
    nx, ny, dx, dy = g.nx, g.ny, fn.dx, fn.dy
    return {
        "identity": c,
        "rotation": Coord(nx - 1 - c.y, c.x),
        "mirror_x": Coord(nx - 1 - c.x, c.y),
        "mirror_y": Coord(c.x, ny - 1 - c.y),
        "mirror_xy": Coord(nx - 1 - c.x, ny - 1 - c.y),
        "translate_x": Coord((c.x + dx) % nx, c.y),
        "translate_y": Coord(c.x, (c.y + dy) % ny),
        "translate_xy": Coord((c.x + dx) % nx, (c.y + dy) % ny),
    }[fn.kind]


@given(meshes, functions)
def test_as_permutation_equals_pointwise_apply(g, fn):
    """The index-arithmetic permutation against the per-cell walk it replaced
    and against the transform table."""
    if fn.kind == "rotation" and g.nx != g.ny:
        with pytest.raises(UnsupportedFunctionError):
            as_permutation(fn, g)
        with pytest.raises(UnsupportedFunctionError):
            apply(fn, Coord(0, 0), g)
        return
    perm = as_permutation(fn, g)
    assert perm.forward == tuple(g.index(apply(fn, c, g)) for c in g.cells())
    assert all(perm(c) == apply(fn, c, g) == reference_image(fn, c, g) for c in g.cells())
