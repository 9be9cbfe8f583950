import calendar
import ctypes
import math
import warnings
from contextlib import nullcontext
from dataclasses import fields
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import cython_blas

from rentgam import gam
from rentgam.errors import DataError, NumericalError, OutOfDomainError
from rentgam.gam import (
    DEFAULT_LAMBDA_GRID,
    EARTH_RADIUS_MILES,
    Design,
    ModelSpec,
    TermSpec,
    bic,
    build_design,
    default_model_spec,
    derive_rows,
    effect_surface,
    fit_pls,
    haversine_miles,
    multiplicative_effect,
    predict,
    select_smoothness,
    spatial_filter,
    year_and_doy,
)
from rentgam.listings import GEOCODED_COLUMNS, columns_of
from rentgam.synthetic import default_truth, simulate_listings
from oracles import augmented_ls_beta, unmemoized_descent
from tolerance import dot_product_bound, rounding_tolerance


def geocoded(
    rent=650.0,
    start=date(2015, 7, 2),
    bedrooms=2,
    lat=55.8609,
    lon=-4.2514,
    property_type="flat",
    deprivation=0.3,
):
    """One geocoded listing, its fields in GEOCODED_COLUMNS order."""
    return ("x", start, start, "G12 8QQ", rent, bedrooms, property_type,
            lat, lon, "AREA1", deprivation)


def listing_columns(records):
    return columns_of(records, GEOCODED_COLUMNS)


def model_columns(n, **given):
    """Model columns of n rows: the given values (arrays or scalars),
    every other column held fixed."""
    fixed = {"logprice": 0.0, "beds": 2.0, "deprivation": 0.5, "year": 2014.0,
             "doy": 180.0, "longitude": -4.25, "latitude": 55.86}
    return {name: np.full(n, given.get(name, value), dtype=float)
            for name, value in fixed.items()}


def same_columns(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def doubled(rows):
    """Every row twice: the rows, then the same rows again."""
    return {name: np.concatenate([v, v]) for name, v in rows.items()}


def synthetic_rows(n=300, seed=0, noise=0.0, fn=None):
    """Rows over two covariates (deprivation, year); others held fixed."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    t = rng.uniform(2012.0, 2017.0, n)
    if fn is None:
        fn = lambda x, t: 1.0 + 0.5 * x + 0.1 * (t - 2014.0)
    y = fn(x, t) + noise * rng.standard_normal(n)
    return model_columns(n, logprice=y, deprivation=x, year=t), y


def location_model(n=150):
    """A fit of one location surface to noise."""
    rng = np.random.default_rng(2)
    y = rng.standard_normal(n)
    rows = model_columns(n, logprice=y, longitude=rng.uniform(-4.4, -4.1, n),
                         latitude=rng.uniform(55.7, 56.0, n))
    spec = ModelSpec(terms=(TermSpec("location", ("longitude", "latitude"), (5, 5)),))
    return fit_pls(build_design(rows, spec), y, {"location": 1.0})


def one_term_spec(segments=10):
    return ModelSpec(terms=(TermSpec("deprivation", ("deprivation",), (segments,)),))


def two_term_spec():
    return ModelSpec(
        terms=(
            TermSpec("deprivation", ("deprivation",), (8,)),
            TermSpec("year", ("year",), (8,)),
            TermSpec(
                "deprivation:year",
                ("deprivation", "year"),
                (3, 3),
                interaction=True,
            ),
        )
    )


class TestDeriveRows:
    def test_calendar_arithmetic(self):
        row = derive_rows(listing_columns([geocoded(start=date(2015, 7, 2))]))
        # oracle: day count from January 1st
        doy = (date(2015, 7, 2) - date(2015, 1, 1)).days + 1
        assert row["doy"][0] == doy == 183
        assert row["year"][0] == pytest.approx(2015 + 182 / 365, abs=1e-12)

    def test_leap_year(self):
        row = derive_rows(listing_columns([geocoded(start=date(2016, 7, 2))]))
        assert row["doy"][0] == 184
        assert row["year"][0] == pytest.approx(2016 + 183 / 366, abs=1e-12)
        year, _ = year_and_doy(np.array([date(2016, 12, 31)], dtype="datetime64[D]"))
        assert year[0] == pytest.approx(2016 + 365 / 366)

    def test_log_rent(self):
        row = derive_rows(listing_columns([geocoded(rent=650.0)]))
        assert row["logprice"][0] == pytest.approx(math.log(650.0), abs=1e-14)

    def test_rejects_unclean(self):
        with pytest.raises(DataError, match="not clean"):
            derive_rows(listing_columns([geocoded(rent=-1.0)]))
        with pytest.raises(DataError):
            derive_rows(listing_columns([geocoded(start=None)]))


class TestColumnRounding:
    """The column path must round as the per-row formulas it replaced,
    or CLI outputs would move: each test keeps that formula as its
    oracle and asks for equality bit for bit."""

    # 29 February of leap years with each leap rule; 31 December of a
    # century non-leap year, a leap year and the range's ends
    EDGE_DATES = [
        date(1904, 2, 29), date(2000, 2, 29), date(2096, 2, 29),
        date(1900, 12, 31), date(2000, 12, 31), date(2015, 12, 31), date(2100, 12, 31),
    ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dates(date(1900, 1, 1), date(2100, 12, 31)), max_size=40))
    def test_year_and_doy_equal_per_row_formula(self, drawn):
        days = drawn + self.EDGE_DATES
        year, doy = year_and_doy(np.array(days, dtype="datetime64[D]"))
        for d, got_year, got_doy in zip(days, year.tolist(), doy.tolist()):
            yday = d.timetuple().tm_yday
            length = 366 if calendar.isleap(d.year) else 365
            assert got_doy == yday
            assert got_year == d.year + (yday - 1) / length

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=100))
    # numpy's vectorized log rounds this rent one ulp above math.log
    @example([75673.87962657833])
    def test_log_rent_equals_math_log(self, rents):
        n = len(rents)
        columns = {
            "rent": np.array(rents),
            "bedrooms": np.ones(n),
            "start_date": np.full(n, np.datetime64("2015-06-01", "D")),
            "deprivation": np.zeros(n),
            "longitude": np.zeros(n),
            "latitude": np.zeros(n),
        }
        got = derive_rows(columns)["logprice"]
        assert got.tolist() == [math.log(r) for r in rents]


def haversine_oracle(lat1, lon1, lat2, lon2):
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = (
        math.sin((p2 - p1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    )
    return 2 * 3958.761 * math.asin(math.sqrt(a))


class TestSpatial:
    def test_haversine_against_oracle(self):
        pairs = [
            (55.8609, -4.2514, 55.9533, -3.1883),  # Glasgow to Edinburgh
            (55.8609, -4.2514, 55.8650, -4.2800),
            (51.5074, -0.1278, 55.8609, -4.2514),
        ]
        for lat1, lon1, lat2, lon2 in pairs:
            got = haversine_miles(lat1, lon1, lat2, lon2)
            assert got == pytest.approx(
                haversine_oracle(lat1, lon1, lat2, lon2), abs=1e-6
            )

    def test_zero_and_symmetry(self):
        assert haversine_miles(55.86, -4.25, 55.86, -4.25) == 0.0
        d1 = haversine_miles(55.86, -4.25, 55.95, -3.19)
        d2 = haversine_miles(55.95, -3.19, 55.86, -4.25)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_filter_radius_and_type(self):
        center = (55.8609, -4.2514)
        near_flat = geocoded(lat=55.8650, lon=-4.2600)
        near_house = geocoded(lat=55.8650, lon=-4.2600, property_type="detached")
        far_flat = geocoded(lat=56.1000, lon=-3.9)  # > 10 miles away
        columns = listing_columns([near_flat, near_house, far_flat])
        kept = spatial_filter(columns, center, 10.0, "flat")
        assert same_columns(kept, listing_columns([near_flat]))
        no_type = spatial_filter(columns, center, 10.0, property_type=None)
        assert same_columns(no_type, listing_columns([near_flat, near_house]))

    def test_filter_validates_radius(self):
        with pytest.raises(ValueError, match="radius"):
            spatial_filter(listing_columns([]), (55.86, -4.25), 0.0)

    def test_filter_keeps_the_rows_of_a_per_listing_loop(self):
        # scalar and array haversine can differ in the last bit, so only a
        # point within an ulp of the radius could be kept by one alone
        columns = simulate_listings(3000, default_truth(), seed=4).listings
        kinds = ["flat" if i % 3 else "detached" for i in range(3000)]
        columns["property_type"] = np.array(kinds)
        points = list(zip(kinds, columns["latitude"].tolist(), columns["longitude"].tolist()))
        center = (55.88, -4.22)
        for radius in (2.0, 5.0, 10.0):
            for kind in ("flat", None):
                want = np.array([
                    (kind is None or k == kind)
                    and haversine_miles(center[0], center[1], lat, lon) <= radius
                    for k, lat, lon in points
                ])
                kept = spatial_filter(columns, center, radius, kind)
                expected = {name: values[want] for name, values in columns.items()}
                assert 0 < want.sum() and same_columns(kept, expected)


class TestModelSpec:
    def test_default_spec_shape(self):
        spec = default_model_spec()
        names = [t.name for t in spec.terms]
        assert names == [
            "beds",
            "deprivation",
            "year",
            "doy",
            "location",
            "beds:year",
            "deprivation:year",
            "location:year",
        ]
        assert spec.owner_of("longitude") == "location"
        assert spec.owner_of("year") == "year"

    def test_rejects_interaction_without_main(self):
        with pytest.raises(ValueError, match="without a main effect"):
            ModelSpec(
                terms=(
                    TermSpec("year", ("year",), (5,)),
                    TermSpec("beds:year", ("beds", "year"), (3, 3), interaction=True),
                )
            )

    def test_rejects_doy_interaction(self):
        with pytest.raises(ValueError, match="day-of-year"):
            ModelSpec(
                terms=(
                    TermSpec("doy", ("doy",), (5,)),
                    TermSpec("year", ("year",), (5,)),
                    TermSpec("doy:year", ("doy", "year"), (3, 3), interaction=True),
                )
            )

    def test_rejects_duplicate_variable_ownership(self):
        with pytest.raises(ValueError, match="appears in main effects"):
            ModelSpec(
                terms=(
                    TermSpec("year", ("year",), (5,)),
                    TermSpec("year2", ("year",), (5,)),
                )
            )

    @pytest.mark.parametrize("pinned", ["beds", "beds:year"])
    def test_rejects_a_pinned_term(self, pinned):
        # smoothing parameters live only in lambdas: a main effect's is
        # selected, and every interaction direction inherits one, so a
        # term has no lam field to set
        assert "lam" not in {f.name for f in fields(TermSpec)}
        variables = tuple(pinned.split(":"))
        with pytest.raises(TypeError, match="lam"):
            TermSpec(pinned, variables, (3,) * len(variables),
                     interaction=len(variables) > 1, lam=3.0)

    @pytest.mark.parametrize(
        "segments, degree, order",
        [((1,), 1, 2), ((1,), 2, 3), ((4, 1), 1, 2), ((2,), 1, 3)],
    )
    def test_refuses_a_margin_too_small_for_its_penalty(self, segments, degree, order):
        # segments + degree basis columns must outnumber the difference
        # order; build_design once died in difference_penalty without the
        # term's name
        variables = ("deprivation", "year")[: len(segments)]
        with pytest.raises(ValueError, match="term t: segments \\+ degree must exceed"):
            TermSpec("t", variables, segments, degree=degree, penalty_order=order,
                     interaction=len(segments) > 1)

    def test_smallest_margin_for_its_penalty_builds(self):
        rows, y = synthetic_rows(60, noise=0.1)
        spec = ModelSpec(terms=(
            TermSpec("deprivation", ("deprivation",), (1,), degree=2, penalty_order=2),
        ))
        assert build_design(rows, spec).block("deprivation").width == 2

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"name": 3}, "term name must be a string"),
            ({"variables": "year"}, "variables must be strings"),
            ({"segments": (0,)}, "segments takes whole numbers"),
            ({"segments": (5.0,)}, "segments takes whole numbers"),
            ({"degree": True}, "degree takes whole numbers"),
            ({"penalty_order": np.int64(2)}, "penalty_order takes whole numbers"),
            ({"interaction": 1}, "interaction must be true or false"),
        ],
    )
    def test_term_refuses_ill_typed_fields(self, fields, match):
        given = {"name": "year", "variables": ("year",), "segments": (5,), **fields}
        with pytest.raises(ValueError, match=match):
            TermSpec(**given)

    def test_drop_interaction_alone(self):
        spec = default_model_spec()
        reduced = spec.drop("beds:year")
        names = [t.name for t in reduced.terms]
        assert "beds:year" not in names
        assert "beds" in names and "location:year" in names

    def test_drop_main_takes_interactions(self):
        spec = default_model_spec()
        reduced = spec.drop("year")
        names = [t.name for t in reduced.terms]
        assert names == ["beds", "deprivation", "doy", "location"]


class TestBuildDesign:
    def test_column_accounting(self):
        rows, _ = synthetic_rows(200)
        design = build_design(rows, two_term_spec())
        # univariate: (8+3) columns raw, one lost to the constraint
        assert design.block("deprivation").width == 10
        assert design.block("year").width == 10
        # interaction margins: dims (6, 6) -> free (6-1)*(6-1)
        assert design.block("deprivation:year").width == 25
        assert design.p == 1 + 10 + 10 + 25

    def test_location_tensor_single_constraint(self):
        rng = np.random.default_rng(2)
        n = 150
        lon = rng.uniform(-4.4, -4.1, n)
        lat = rng.uniform(55.7, 56.0, n)
        rows = model_columns(n, doy=100.0, longitude=lon, latitude=lat)
        spec = ModelSpec(
            terms=(
                TermSpec("location", ("longitude", "latitude"), (5, 5)),
            )
        )
        design = build_design(rows, spec)
        # dims (8, 8) tensor loses exactly one column to the constraint
        assert design.block("location").width == 63

    def test_degenerate_covariate_names_term(self):
        rows, _ = synthetic_rows(50)
        rows = {**rows, "deprivation": np.full(50, 0.5)}
        with pytest.raises(DataError, match="deprivation"):
            build_design(rows, one_term_spec())

    def test_unidentifiable_block_rejected(self):
        # two distinct bedroom counts cannot pin down the quadratic null
        # space of a third-order penalty: rank 5 of 6 constrained columns
        rows, _ = synthetic_rows(60)
        rows = {**rows, "beds": 1.0 + np.arange(60) % 2}
        spec = ModelSpec(terms=(TermSpec("beds", ("beds",), (4,), penalty_order=3),))
        with pytest.raises(NumericalError, match="rank deficient"):
            build_design(rows, spec)

    def test_intercept_only(self):
        rows, y = synthetic_rows(40, noise=0.1)
        design = build_design(rows, ModelSpec(terms=()))
        model = fit_pls(design, y, {})
        assert model.k == pytest.approx(1.0, abs=1e-9)
        assert predict(model, rows) == pytest.approx(np.full(40, y.mean()), abs=1e-12)


@pytest.fixture(scope="module")
def default_design():
    corpus = simulate_listings(400, default_truth(), sigma=0.1, seed=3)
    rows = derive_rows(corpus.listings)
    return rows, build_design(rows, default_model_spec())


class TestDesignDrop:
    @pytest.mark.parametrize("term", [t.name for t in default_model_spec().terms])
    def test_equals_building_the_reduced_spec(self, default_design, term):
        rows, design = default_design
        dropped = design.drop(term)
        built = build_design(rows, design.spec.drop(term))
        assert dropped.spec == built.spec
        assert np.array_equal(dropped.matrix, built.matrix)
        assert dropped.matrix.flags.c_contiguous
        assert len(dropped.blocks) == len(built.blocks)
        for got, want in zip(dropped.blocks, built.blocks):
            assert got.term == want.term
            assert got.columns == want.columns
            assert got.penalty_owners == want.penalty_owners
            assert len(got.penalties) == len(want.penalties)
            for a, b in zip(got.penalties, want.penalties):
                assert np.array_equal(a, b)


class TestRowBlocks:
    """Products with a row per observation run ``ROW_CHUNK`` rows at a
    time; the oracle is the plain path, one product over every row."""

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 14, 17])
    def test_blocks_of_row_chunk_rows_cover_the_rows(self, monkeypatch, n):
        monkeypatch.setattr(gam, "ROW_CHUNK", 7)
        blocks = [range(n)[rows] for rows in gam._row_blocks(n)]
        assert [len(b) for b in blocks] == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
        assert [i for b in blocks for i in b] == list(range(n))

    def test_fills_equal_one_product(self, default_design, monkeypatch):
        # n = 2 x 7 + 3: two whole blocks, then a last block of 3 rows; at
        # n 17 < ROW_CHUNK the unpatched build is one block
        rows = {name: col[:17] for name, col in default_design[0].items()}
        want = build_design(rows, default_model_spec())
        monkeypatch.setattr(gam, "ROW_CHUNK", 7)
        got = build_design(rows, default_model_spec())
        assert np.array_equal(got.matrix, want.matrix)
        for a, b in zip(got.blocks, want.blocks):
            assert np.array_equal(a.column_sums, b.column_sums)  # None for interactions

    @pytest.fixture(scope="class")
    def tall_design(self):
        # n = 2 ROW_CHUNK + 3 rows: two whole blocks and a last of 3 rows
        corpus = simulate_listings(2 * gam.ROW_CHUNK + 200, default_truth(), sigma=0.1, seed=3)
        rows = derive_rows(corpus.listings)
        rows = {name: col[: 2 * gam.ROW_CHUNK + 3] for name, col in rows.items()}
        return build_design(rows, default_model_spec())

    @staticmethod
    def padded(parent, term, b):
        """``b`` with zero rows in the columns of ``parent`` that its design
        without ``term`` lacks (None: all of them kept)."""
        full = np.zeros((parent.p, b.shape[1]))
        full[slice(None) if term is None else parent.kept_columns(term)] = b
        return full

    @pytest.mark.parametrize("term", [None, "deprivation:year"])
    def test_matvec_equals_one_product(self, tall_design, term):
        # a dropped design evaluates only its own columns: its product is
        # one product over its own matrix. The rows of whole blocks equal
        # it bit for bit; the 3-row last block goes to OpenBLAS's
        # small-matrix kernel, which sums in another order, so it is held
        # to the dot-product bound 2 p eps times its sum of absolute terms
        design = tall_design if term is None else tall_design.drop(term)
        b = np.random.default_rng(0).standard_normal((design.p, 19))
        x = design.matrix
        got, want = design.matvec(b), x @ b
        whole = 2 * gam.ROW_CHUNK
        assert np.array_equal(got[:whole], want[:whole])
        assert (np.abs(got[whole:] - want[whole:]) <= dot_product_bound(x[whole:], b)).all()

    @pytest.mark.parametrize("term", [None, "deprivation:year"])
    def test_matvec_in_small_blocks_within_rounding(self, default_design, monkeypatch, term):
        # blocks of 7 rows go to OpenBLAS's small-matrix kernel, which sums
        # in another order than its blocked kernel does over all rows (up
        # to 4.4e-16 apart here), so each value is held to the dot-product
        # bound 2 p eps times its sum of absolute terms
        full = default_design[1]
        rows = {name: col[:17] for name, col in default_design[0].items()}
        parent = Design(full.spec, full.blocks, gram=full.gram, columns=rows)
        x = parent.matrix
        design = parent if term is None else parent.drop(term)
        b = np.random.default_rng(0).standard_normal((design.p, 19))
        full = self.padded(parent, term, b)
        monkeypatch.setattr(gam, "ROW_CHUNK", 7)
        assert (np.abs(design.matvec(b) - x @ full) <= dot_product_bound(x, full)).all()

    @pytest.mark.parametrize("term", [t.name for t in default_model_spec().terms])
    def test_term_effect_in_small_blocks_within_rounding(self, default_design, monkeypatch,
                                                          term):
        # TermBlock.effect over n = 2 x 7 + 3 rows in blocks of 7 against
        # one product over every row of the basis: the effect g beta and
        # the variance, the diagonal of g v g', each held to the dot-product
        # bound 2 w eps, w the term's width, as matvec is above
        rows = {name: col[:17] for name, col in default_design[0].items()}
        block = default_design[1].block(term)
        g = block.evaluate(rows)
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(block.width)
        root = rng.standard_normal((block.width, block.width))
        v = root @ root.T
        monkeypatch.setattr(gam, "ROW_CHUNK", 7)
        effect, var = block.effect(rows, beta, v)
        assert (np.abs(effect - g @ beta) <= dot_product_bound(g, beta)).all()
        var_bound = (dot_product_bound(g, v) * np.abs(g)).sum(axis=1)
        assert (np.abs(var - ((g @ v) * g).sum(axis=1)) <= var_bound).all()
        assert np.array_equal(block.effect(rows, beta)[0], effect)
        assert block.effect(rows, beta)[1] is None


class TestInteractionMargins:
    """Interaction blocks come from the constrained margins; the oracle is
    the constraint applied to the raw tensor-product basis."""

    @pytest.mark.parametrize("term", ["beds:year", "deprivation:year", "location:year"])
    def test_design_block_equals_constrained_raw_tensor(self, default_design, term):
        rows, design = default_design
        block = design.block(term)
        oracle = block.transform.apply(block.raw_basis(rows))
        got = design.matrix[:, block.columns]
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("term", ["beds:year", "deprivation:year", "location:year"])
    def test_evaluate_on_a_grid_equals_constrained_raw_tensor(self, default_design, term):
        _, design = default_design
        block = design.block(term)
        axes = [np.linspace(kv.lo, kv.hi, 9) for kv in block.knots]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = {v: m.ravel() for v, m in zip(block.term.variables, mesh)}
        oracle = block.transform.apply(block.raw_basis(grid))
        got = block.evaluate(grid)
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))


class TestFitPls:
    def test_design_without_rows_refused(self):
        # a design given only X'X has no n: fit_pls and selection need rows
        rows, y = synthetic_rows(150, noise=0.3)
        built = build_design(rows, two_term_spec())
        design = Design(built.spec, built.blocks, gram=built.gram)
        with pytest.raises(ValueError, match="^the design holds no rows$"):
            fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        with pytest.raises(ValueError, match="^the design holds no rows$"):
            select_smoothness(design, y)

    def test_overflowing_penalty_names_its_term(self):
        # 1e308 passes as finite, but its S overflows: once two numpy
        # overflow warnings and cho_factor's "must not contain infs or NaNs"
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"^term year: smoothing parameter 1e\+308 overflows the penalty$",
            ):
                fit_pls(design, y, {"deprivation": 1.0, "year": 1e308})

    def test_products_without_rows_refused(self):
        # X b and X' v need the rows; the matrix itself is None, as
        # documented, on the design and on one dropped from it
        rows, y = synthetic_rows(150, noise=0.3)
        built = build_design(rows, two_term_spec())
        full = Design(built.spec, built.blocks, gram=built.gram)
        for design in (full, full.drop("deprivation:year")):
            assert design.matrix is None
            with pytest.raises(ValueError, match="^the design holds no rows$"):
                design.matvec(np.zeros(design.p))
            with pytest.raises(ValueError, match="^the design holds no rows$"):
                design.rmatvec(y)

    def test_matches_augmented_least_squares(self):
        # several random instances, solved along an independent route
        for i in range(5):
            rng = np.random.default_rng(100 + i)
            rows, y = synthetic_rows(
                150, seed=i, noise=0.3, fn=lambda x, t: np.sin(3 * x) + 0.2 * t
            )
            design = build_design(rows, two_term_spec())
            lams = {
                "deprivation": float(rng.choice(DEFAULT_LAMBDA_GRID)),
                "year": float(rng.choice(DEFAULT_LAMBDA_GRID)),
            }
            model = fit_pls(design, y, lams)
            beta = augmented_ls_beta(design, y, lams)
            assert np.max(np.abs(model.beta - beta)) < 1e-8

    @pytest.mark.parametrize("bad", [None, -5.0, math.nan, math.inf, "1.0"])
    def test_refuses_a_smoothing_parameter_that_is_not_finite_and_non_negative(
        self, bad
    ):
        rows, y = synthetic_rows(60)
        design = build_design(rows, one_term_spec(segments=6))
        with pytest.raises(ValueError, match="term deprivation: smoothing parameter"):
            fit_pls(design, y, {"deprivation": bad})
        with pytest.raises(ValueError, match="no smoothing parameter for term deprivation"):
            fit_pls(design, y, {})

    def test_zero_lambda_is_ols(self):
        rows, y = synthetic_rows(120, noise=0.5)
        design = build_design(rows, one_term_spec(segments=6))
        model = fit_pls(design, y, {"deprivation": 0.0})
        ols, *_ = np.linalg.lstsq(design.matrix, y, rcond=None)
        assert np.max(np.abs(model.beta - ols)) < 1e-8

    def test_huge_lambda_gives_straight_line(self):
        rows, y = synthetic_rows(
            200, noise=0.2, fn=lambda x, t: 1.0 + 2.0 * x
        )
        design = build_design(rows, one_term_spec())
        model = fit_pls(design, y, {"deprivation": 1e12})
        x = rows["deprivation"]
        coef = np.polynomial.polynomial.polyfit(x, y, 1)
        assert np.max(np.abs(model.fitted - (coef[0] + coef[1] * x))) < 1e-4

    def test_edf_monotone_in_lambda(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        ladder = np.logspace(-3, 6, 5)
        for name in ("deprivation", "year"):
            ks = []
            for lam in ladder:
                lams = {"deprivation": 1.0, "year": 1.0}
                lams[name] = float(lam)
                ks.append(fit_pls(design, y, lams).k)
            assert all(a >= b - 1e-9 for a, b in zip(ks, ks[1:]))

    def test_edf_partition(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 10.0})
        assert sum(model.edf_by_term.values()) == pytest.approx(model.k, abs=1e-9)

    def test_sigma2_uses_residual_dof(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, one_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0})
        assert model.sigma2 == pytest.approx(model.rss / (model.n - model.k))

    def test_identifiability_on_fitted_model(self):
        rows, y = synthetic_rows(
            300, noise=0.2, fn=lambda x, t: np.sin(4 * x) + 0.3 * (t - 2014) + 0.1 * x * t
        )
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        for name in ("deprivation", "year"):
            block = design.block(name)
            values = block.evaluate(rows) @ model.coefficients(name)
            assert abs(values.sum()) < 1e-6 * len(y)
        block = design.block("deprivation:year")
        theta = block.transform.z @ model.coefficients("deprivation:year")
        arr = theta.reshape(6, 6)
        assert np.max(np.abs(arr.sum(axis=0))) < 1e-8
        assert np.max(np.abs(arr.sum(axis=1))) < 1e-8

    def test_response_shift_moves_only_intercept(self):
        rows, y = synthetic_rows(200, noise=0.3)
        design = build_design(rows, two_term_spec())
        lams = {"deprivation": 1.0, "year": 100.0}
        m1 = fit_pls(design, y, lams)
        m2 = fit_pls(design, y + 5.0, lams)
        assert m2.intercept - m1.intercept == pytest.approx(5.0, abs=1e-8)
        assert np.max(np.abs(predict(m2, rows) - predict(m1, rows) - 5.0)) < 1e-8
        for name in ("deprivation", "year", "deprivation:year"):
            s1 = effect_surface(m1, name, grid=10)
            s2 = effect_surface(m2, name, grid=10)
            assert np.max(np.abs(s1.effect - s2.effect)) < 1e-8

    def test_duplicated_rows_at_zero_lambda(self):
        rows, y = synthetic_rows(80, noise=0.4)
        spec = one_term_spec(segments=5)
        m1 = fit_pls(build_design(rows, spec), y, {"deprivation": 0.0})
        y2 = np.concatenate([y, y])
        m2 = fit_pls(build_design(doubled(rows), spec), y2, {"deprivation": 0.0})
        assert np.max(np.abs(predict(m2, rows) - predict(m1, rows))) < 1e-8

    def test_fitted_values_are_stored_once(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        assert model.fitted is model.fitted
        assert np.array_equal(model.fitted, design.matvec(model.beta))

    @staticmethod
    def singular_design():
        """Five distinct values, twice each, under an unpenalized basis of 8
        columns: X'X is exactly singular, of rank 5. The ridged fit gives
        the group means, with k 5 (measured 4.9999995, and fitted values
        within 7e-10 of the means)."""
        x = np.repeat([0.0, 0.3, 0.5, 0.7, 1.0], 2)
        y = np.arange(10.0)
        rows = model_columns(10, deprivation=x, logprice=y)
        return build_design(rows, one_term_spec(segments=5)), y

    def test_ridge_retry_warns(self):
        design, y = self.singular_design()
        with pytest.warns(RuntimeWarning, match="ridge"):
            model = fit_pls(design, y, {"deprivation": 0.0})
        assert model.k == pytest.approx(5.0)
        assert model.fitted == pytest.approx(np.repeat(y[::2] + 0.5, 2))

    def test_ridge_retry_warns_on_every_fit_of_its_factor(self):
        design, y = self.singular_design()
        with pytest.warns(RuntimeWarning, match="ridge"):
            first = fit_pls(design, y, {"deprivation": 0.0})
        with pytest.warns(RuntimeWarning, match="ridge"):
            again = fit_pls(design, y, {"deprivation": 0.0})  # from the cached factor
        assert again._cho is first._cho
        assert again.k == first.k

    def test_duplicated_rows_with_doubled_lambda(self):
        # (2X'X + 2S) beta = 2X'y has the original solution
        rows, y = synthetic_rows(80, noise=0.4)
        spec = one_term_spec()
        m1 = fit_pls(build_design(rows, spec), y, {"deprivation": 7.0})
        y2 = np.concatenate([y, y])
        m2 = fit_pls(build_design(doubled(rows), spec), y2, {"deprivation": 14.0})
        assert np.max(np.abs(predict(m2, rows) - predict(m1, rows))) < 1e-8


class TestFactorCache:
    """fit_pls factors X'X + S once per design and smoothing parameters."""

    @staticmethod
    def counting_cho_factor(monkeypatch):
        calls = []
        cho_factor = linalg.cho_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(gam.linalg, "cho_factor", counting)
        return calls

    @staticmethod
    def same_fit(a, b):
        return (np.array_equal(a.beta, b.beta) and a.rss == b.rss and a.k == b.k
                and a.edf_by_term == b.edf_by_term and a.bic == b.bic)

    def test_repeated_lambdas_factor_once(self, monkeypatch):
        rows, y = synthetic_rows(150, noise=0.3)
        lams = {"deprivation": 3.0, "year": 30.0}
        fresh = fit_pls(build_design(rows, two_term_spec()), y, lams)
        design = build_design(rows, two_term_spec())
        calls = self.counting_cho_factor(monkeypatch)
        fits = [fit_pls(design, y, lams) for _ in range(4)]
        assert len(calls) == 1
        assert all(self.same_fit(fit, fresh) for fit in fits)
        # another response at the same lambdas reuses the factor too
        other = fit_pls(design, y[::-1].copy(), lams)
        assert len(calls) == 1
        monkeypatch.undo()
        plain = fit_pls(build_design(rows, two_term_spec()), y[::-1].copy(), lams)
        assert self.same_fit(other, plain)

    def test_new_lambdas_and_dropped_designs_factor_again(self, monkeypatch):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        calls = self.counting_cho_factor(monkeypatch)
        fit_pls(design, y, {"deprivation": 3.0, "year": 30.0})
        fit_pls(design, y, {"deprivation": 3.0, "year": 31.0})
        assert len(calls) == 2
        fit_pls(design, y, {"deprivation": 3.0, "year": 30.0})  # one entry only
        assert len(calls) == 3
        reduced = design.drop("year")
        fit_pls(reduced, y, {"deprivation": 3.0, "year": 30.0})
        assert calls[-1] == (reduced.p, reduced.p) and len(calls) == 4
        fit_pls(design, y, {"deprivation": 3.0, "year": 30.0})  # still cached
        assert len(calls) == 4

    def test_read_back_on_a_cached_factor_factors_nothing(self, monkeypatch):
        """fit_from_gram on a design whose cache holds the factor at its
        lambdas makes no cho_factor call and reads its covariance on first
        use; covariance, k and EDFs are a fresh design's bit for bit."""
        rows, y = synthetic_rows(150, noise=0.3)
        lams = {"deprivation": 3.0, "year": 30.0}
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, lams)
        stored = (lams, model.beta, model.sigma2, model.n)
        fresh = gam.fit_from_gram(
            Design(design.spec, design.blocks, gram=design.gram), *stored
        )
        calls = self.counting_cho_factor(monkeypatch)
        cached = gam.fit_from_gram(design, *stored)
        assert calls == [] and cached._cov_unscaled is None
        assert np.array_equal(cached.covariance_unscaled, fresh.covariance_unscaled)
        assert np.array_equal(cached.covariance_unscaled, model.covariance_unscaled)
        assert cached.k == fresh.k == model.k
        assert cached.edf_by_term == fresh.edf_by_term == model.edf_by_term

    @pytest.mark.parametrize("lam", [1e-3, 10.0, 1e6])
    def test_inverse_and_hat_diagonal_match_a_dense_oracle(self, lam):
        # both come from one dpotri of the cached factor; the oracle is
        # numpy's dense inverse and solve of X'X + S
        design, y, _ = simulated(1000, 3, default_model_spec())
        lams = {t.name: lam for t in design.spec.main_terms}
        model = fit_pls(design, y, lams)
        a = design.gram + design.penalty(lams)
        tol = rounding_tolerance(a)
        inv = np.linalg.inv(a)
        hat = np.diag(np.linalg.solve(a, design.gram))
        cov = model.covariance_unscaled
        assert np.array_equal(cov, cov.T)
        assert np.max(np.abs(cov - inv)) <= tol * np.max(np.abs(inv))
        got = gam._penalized_factor(design, model.lambdas).hat_diag
        assert np.max(np.abs(got - hat)) <= tol * np.max(np.abs(hat))
        assert model.k == float(got.sum())

    @pytest.mark.parametrize("size", [1, 64, 150])
    def test_mirror_upper_matches_adding_the_transpose(self, size):
        # the banded in-place mirror gives the bytes of the one-line form,
        # -0.0 turned into 0.0 included
        rng = np.random.default_rng(size)
        upper = np.triu(rng.standard_normal((size, size)))
        upper[np.triu(rng.random((size, size)) < 0.1)] = -0.0
        want = upper + np.triu(upper, 1).T
        got = gam._mirror_upper(np.asfortranarray(upper))
        assert got.tobytes(order="C") == want.tobytes(order="C")

    def test_a_changed_lambda_record_does_not_move_the_cache(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        lams = {"deprivation": 3.0, "year": 30.0}
        model = fit_pls(design, y, lams)
        model.lambdas["year"] = 1e6
        again = fit_pls(design, y, {"deprivation": 3.0, "year": 1e6})
        assert again._cho is not model._cho


class TestBic:
    def test_hand_value(self):
        assert bic(100.0, 100, 2.0) == pytest.approx(2 * math.log(100), abs=1e-12)

    def test_formula_oracle(self):
        assert bic(500.0, 10626, 40.0) == pytest.approx(
            10626 * math.log(500.0 / 10626) + 40.0 * math.log(10626), abs=1e-9
        )

    def test_zero_rss_is_degenerate(self):
        with pytest.raises(NumericalError, match="degenerate"):
            bic(0.0, 100, 2.0)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            bic(1.0, 0, 2.0)
        with pytest.raises(ValueError):
            bic(1.0, 100, -1.0)
        with pytest.raises(ValueError):
            bic(-1.0, 100, 1.0)

    def test_fitted_model_bic_recomputable(self):
        rows, y = synthetic_rows(150, noise=0.3)
        model = fit_pls(build_design(rows, one_term_spec()), y, {"deprivation": 1.0})
        assert model.bic == pytest.approx(bic(model.rss, model.n, model.k), abs=1e-9)


class TestSelectSmoothness:
    def test_noiseless_line_selects_largest(self):
        rows, y = synthetic_rows(200, noise=0.0, fn=lambda x, t: 2.0 + 3.0 * x)
        design = build_design(rows, one_term_spec())
        sel = select_smoothness(design, y, grid=[0.1, 1.0, 10.0])
        assert sel == {"deprivation": 10.0}
        # oracle: evaluate all three fits; BIC must fall as lambda rises
        bics = [
            fit_pls(design, y, {"deprivation": lam}).bic for lam in (0.1, 1.0, 10.0)
        ]
        assert bics[0] > bics[1] > bics[2]

    def test_singleton_grid_returns_unchanged(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        sel = select_smoothness(design, y, grid=[3.3])
        assert sel == {"deprivation": 3.3, "year": 3.3}

    @pytest.mark.parametrize(
        "grid", [[], [-1.0, 10.0], [math.nan], [1.0, math.inf]],
        ids=["empty", "negative", "nan", "inf"],
    )
    def test_invalid_grid_rejected_before_any_fit(self, monkeypatch, grid):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        monkeypatch.setattr(gam, "_penalized_factor", None)  # any fit fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="invalid smoothing grid"):
                select_smoothness(design, y, grid=grid)

    def test_permuted_grid_starts_at_its_sorted_middle(self, monkeypatch):
        """The ladder is the grid sorted: every term starts at its middle
        value, the ladder evaluator's base, whatever order the grid has."""
        rows, y = synthetic_rows(
            250, noise=0.2, seed=3, fn=lambda x, t: np.sin(5 * x) + 0.05 * t
        )
        design = build_design(rows, two_term_spec())
        grid = [10.0, 1e6, 1e-3, 1e3, 0.1]
        ladders = recording_ladder_fits(monkeypatch)
        sel = select_smoothness(design, y, grid=grid)
        assert ladders[0][1] == {"deprivation": 10.0, "year": 10.0}
        monkeypatch.undo()
        assert sel == select_smoothness(design, y, grid=sorted(grid))

    def test_descending_grid_is_swept_ascending(self, monkeypatch):
        """Every ladder runs ascending whatever order the grid has, so the
        tie rule needs no comparison of values: a later tie is larger."""
        rows, y = synthetic_rows(
            250, noise=0.2, seed=3, fn=lambda x, t: np.sin(5 * x) + 0.05 * t
        )
        design = build_design(rows, two_term_spec())
        seen = []
        ladder_fits = gam._ladder_fits

        def recording(design, y, current, name, ladder, *args):
            seen.append(ladder.tolist())
            return ladder_fits(design, y, current, name, ladder, *args)

        monkeypatch.setattr(gam, "_ladder_fits", recording)
        sel = select_smoothness(design, y, grid=[100.0, 10.0, 1.0])
        assert seen and all(ladder == [1.0, 10.0, 100.0] for ladder in seen)
        monkeypatch.undo()
        assert sel == select_smoothness(design, y, grid=[1.0, 10.0, 100.0])

    def test_deterministic(self):
        rows, y = synthetic_rows(200, noise=0.3)
        design = build_design(rows, two_term_spec())
        assert select_smoothness(design, y) == select_smoothness(design, y)

    def test_selection_minimizes_bic_coordinatewise(self):
        rows, y = synthetic_rows(
            250, noise=0.2, seed=3, fn=lambda x, t: np.sin(5 * x) + 0.05 * t
        )
        design = build_design(rows, two_term_spec())
        grid = [0.01, 1.0, 100.0]
        sel = select_smoothness(design, y, grid=grid)
        chosen = fit_pls(design, y, sel).bic
        for name in sel:
            for lam in grid:
                trial = dict(sel)
                trial[name] = lam
                assert chosen <= fit_pls(design, y, trial).bic + 1e-6

    def test_sweep_cap_warns(self, monkeypatch):
        rows, y = synthetic_rows(
            250, noise=0.2, seed=3, fn=lambda x, t: np.sin(5 * x) + 0.05 * t
        )
        design = build_design(rows, two_term_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # converged: no warning
            select_smoothness(design, y)
        monkeypatch.setattr(gam, "MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="max_sweeps=1") as record:
            select_smoothness(design, y)
        assert record[0].filename == __file__  # the caller's line

    @pytest.mark.parametrize("best", [-500.0, 0.0], ids=["relative", "absolute"])
    @pytest.mark.parametrize(
        "gap, chosen", [(0.5, 10.0), (2.0, 1.0)], ids=["tie", "beyond"]
    )
    @pytest.mark.parametrize("order", [1, -1], ids=["rising", "falling"])
    def test_tie_rule(self, monkeypatch, best, gap, chosen, order):
        """A score within 1e-9*|best| + 1e-12 of the best ties, and a tie
        goes to the larger value, whichever way the ladder runs."""
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, one_term_spec())
        n = design.n
        tol = 1e-9 * abs(best) + 1e-12
        # each point's BIC above the best, scripted through k at one rss
        above = {1.0: 0.0, 10.0: gap * tol, 100.0: 1.0}
        rss = n * math.exp(best / n)
        points = {lam: (rss, a / math.log(n)) for lam, a in above.items()}
        scores = {lam: bic(r, n, k) for lam, (r, k) in points.items()}
        assert (scores[10.0] - scores[1.0]) / tol == pytest.approx(gap, rel=0.01)

        def scripted(design, y, current, name, ladder, signal):
            return [gam.LadderFit(*points[lam]) for lam in ladder]

        monkeypatch.setattr(gam, "_ladder_fits", scripted)
        sel = select_smoothness(design, y, grid=[1.0, 10.0, 100.0][::order])
        assert sel == {"deprivation": chosen}

    def test_interaction_inherits_main_lambda(self):
        rows, _ = synthetic_rows(150)
        design = build_design(rows, two_term_spec())
        lams = {"deprivation": 5.0, "year": 80.0}
        s = design.penalty(lams)
        block = design.block("deprivation:year")
        sl = block.columns
        expected = 5.0 * block.penalties[0] + 80.0 * block.penalties[1]
        got = s[sl, sl]
        inner = design.block("deprivation")
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(
            np.abs(s[inner.columns, inner.columns] - 5.0 * inner.penalties[0])
        ) < 1e-12


def plain_ladder_fits(design, y, current, name, ladder, signal=None):
    """The plain path: one fit_pls per ladder point, its gap to the signal
    (given as its moments) a sum of squares over the rows."""
    fits = []
    for lam in ladder:
        m = fit_pls(design, y, {**current, name: float(lam)})
        gap = None if signal is None else float(np.sum((m.fitted - signal.t) ** 2))
        fits.append(gam.LadderFit(m.rss, m.k, gap))
    return fits


def memo_ladders(trace):
    """The ladders of an unmemoized descent's trace that the memo runs:
    those where some other term moved since the term's last ladder."""
    last, run = {}, []
    for name, values in trace:
        others = {k: v for k, v in values.items() if k != name}
        if last.get(name) != others:
            run.append((name, values))
        last[name] = others
    return run


def recording_ladder_fits(monkeypatch):
    calls = []
    ladder_fits = gam._ladder_fits

    def recording(design, y, current, name, *args):
        calls.append((name, dict(current)))
        return ladder_fits(design, y, current, name, *args)

    monkeypatch.setattr(gam, "_ladder_fits", recording)
    return calls


def bic_score(design):
    return lambda fit: bic(fit.rss, design.n, fit.k)


def oracle_score(design):
    return lambda fit: math.sqrt(fit.gap / design.n)


def counting_fit_pls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_pls(*args, **kwargs)

    monkeypatch.setattr(gam, "fit_pls", counting)
    return calls


def simulated(n, seed, spec):
    truth = default_truth()
    corpus = simulate_listings(n, truth, sigma=0.1, seed=seed)
    rows = derive_rows(corpus.listings)
    return build_design(rows, spec), rows["logprice"], truth.signal(rows)


class TestLadderEvaluator:
    def test_every_point_of_one_sweep_matches_fit_pls(self, monkeypatch):
        """The eigen evaluator against fit_pls at every ladder point of
        every selectable term over one BIC sweep of the default spec.
        The rss and the gap to the signal are closed forms, with no
        fitted values. Measured worst relative errors at the mid-ladder
        base are about 8e-10 in k, 7e-11 in rss, 2e-10 in BIC and 7e-10 in
        the gap; an owned penalty that leaves out the interaction
        directions a term lends fails, at about 0.1 in k."""
        design, y, signal = simulated(1000, 3, default_model_spec())
        ladder = DEFAULT_LAMBDA_GRID
        current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
        moments = gam._moments(design, signal, False)[0]
        for name in list(current):
            calls = counting_fit_pls(monkeypatch)
            fits = list(gam._ladder_fits(design, y, current, name, ladder, moments))
            monkeypatch.undo()
            assert calls == []  # the evaluator, not the plain path
            bics = []
            for lam, fit in zip(ladder, fits):
                m = fit_pls(design, y, {**current, name: float(lam)})
                assert fit.k == pytest.approx(m.k, rel=1e-8)
                assert fit.rss == pytest.approx(m.rss, rel=1e-8)
                assert bic(fit.rss, m.n, fit.k) == pytest.approx(m.bic, rel=1e-8)
                gap = float(np.sum((m.fitted - signal) ** 2))
                assert fit.gap == pytest.approx(gap, rel=1e-8)
                bics.append(m.bic)
            current[name] = float(ladder[int(np.argmin(bics))])

    def test_middle_point_is_the_direct_fit(self):
        """The ladder's base is fit_pls's own cached factor, so at the
        middle value, where the Woodbury update is zero, the evaluator
        gives the direct fit's rss, k and gap to the signal bit for bit;
        that gap, a closed form in the signal's moments, is the plain
        sum of squares to 1e-12."""
        design, y, signal = simulated(1000, 3, default_model_spec())
        ladder = DEFAULT_LAMBDA_GRID
        mid = float(ladder[len(ladder) // 2])
        current = {t.name: mid for t in design.spec.main_terms}
        moments = gam._moments(design, signal, False)[0]
        for name in current:
            fits = gam._eigen_ladder(design, y, current, name, ladder, moments)
            fit = fits[len(ladder) // 2]
            lambdas = {**current, name: mid}
            m = fit_pls(design, y, lambdas)
            assert fit.k == m.k and fit.rss == m.rss
            assert fit == gam._direct_fit(design, y, lambdas, moments)
            assert fit.gap == pytest.approx(float(np.sum((m.fitted - signal) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_selection_identical_to_plain_path(self, monkeypatch, seed):
        """BIC and oracle selection pick exactly the lambdas that the same
        loop picks with fit_pls at every ladder point."""
        spec = default_model_spec(6, 5, 4, 3)
        design, y, signal = simulated(1000, seed, spec)
        calls = counting_fit_pls(monkeypatch)
        fast_bic = select_smoothness(design, y)
        fast_oracle = select_smoothness(design, y, signal=signal)
        assert calls == []
        monkeypatch.setattr(gam, "_ladder_fits", plain_ladder_fits)
        assert fast_bic == select_smoothness(design, y)
        assert fast_oracle == select_smoothness(design, y, signal=signal)

    def test_owned_root_per_term(self, monkeypatch):
        """Each term's cached penalty root: R'R reproduces the penalty the
        term owns, R touches only the owned blocks' columns, and a second
        ladder on the same design reuses the array with no second eigh."""
        design, y, _ = simulated(1000, 0, default_model_spec(6, 5, 4, 3))
        ladder = DEFAULT_LAMBDA_GRID
        current = {t.name: float(ladder[6]) for t in design.spec.main_terms}
        for name in current:
            s = np.zeros((design.p, design.p))
            owned = np.zeros(design.p, dtype=bool)
            for block in design.blocks:
                for pen, owner in zip(block.penalties, block.penalty_owners):
                    if owner == name:
                        s[block.columns, block.columns] += pen
                        owned[block.columns] = True
            gam._eigen_ladder(design, y, current, name, ladder)
            root = design._roots[name]
            assert np.max(np.abs(root.T @ root - s)) <= 1e-12 * np.max(np.abs(s))
            assert not root[:, ~owned].any()

            calls = []
            eigh = linalg.eigh

            def counting(*args, **kwargs):
                calls.append(args[0].shape)
                return eigh(*args, **kwargs)

            monkeypatch.setattr(gam.linalg, "eigh", counting)
            gam._eigen_ladder(design, y, current, name, ladder)
            monkeypatch.undo()
            assert design._roots[name] is root
            assert len(calls) == 1  # the r x r eigenproblem, not the root's

    @pytest.mark.parametrize(
        "grid, factors",
        [([10.0], True), ([0.0, 10.0], True), ([1.0, 100.0], False)],
        ids=["one-point", "holding-zero", "base-not-positive-definite"],
    )
    def test_plain_ladders_fit_every_point(self, monkeypatch, grid, factors):
        design, y, _ = simulated(1000, 0, default_model_spec(6, 5, 4, 3))
        if not factors:
            # every factor reports the ridge retry, the ladder base's too
            factor = gam._penalized_factor
            monkeypatch.setattr(
                gam, "_penalized_factor", lambda *args: factor(*args)._replace(ridged=True)
            )
        calls = counting_fit_pls(monkeypatch)
        # a zero on the ladder leaves a term unpenalized, which here needs
        # the ridge retry; every fit on a ridged factor warns
        ridged = not factors or 0.0 in grid
        with pytest.warns(RuntimeWarning, match="ridge") if ridged else nullcontext():
            want, trace = unmemoized_descent(design, y, bic_score(design), grid=grid)
            del calls[:]
            ladders = recording_ladder_fits(monkeypatch)
            assert select_smoothness(design, y, grid=grid) == want
        # every point of every ladder the memo runs, and no other fit
        assert ladders == memo_ladders(trace)
        assert len(calls) == len(grid) * len(ladders)
        if len(grid) == 1:
            assert len(calls) == 5  # one sweep, which changes nothing

    @pytest.mark.parametrize("field", ["rss", "gap"])
    def test_non_positive_closed_form_falls_back_to_fit_pls(self, monkeypatch, field):
        """A closed-form rss or gap that is not positive is rounding, not a
        fit: the whole ladder goes to fit_pls, with no value clamped."""
        design, y, signal = simulated(1000, 3, default_model_spec(6, 5, 4, 3))
        ladder = DEFAULT_LAMBDA_GRID
        current = {t.name: float(ladder[6]) for t in design.spec.main_terms}
        eigen_ladder = gam._eigen_ladder

        def spoiled(*args):
            fits = eigen_ladder(*args)
            fits[0] = fits[0]._replace(**{field: 0.0})
            return fits

        monkeypatch.setattr(gam, "_eigen_ladder", spoiled)
        calls = counting_fit_pls(monkeypatch)
        moments = gam._moments(design, signal, False)[0]
        fits = list(gam._ladder_fits(design, y, current, "year", ladder, moments))
        assert len(calls) == len(ladder)
        plain = plain_ladder_fits(design, y, current, "year", ladder, moments)
        # fit_pls's rss and k; the gap in closed form from the signal's
        # moments, the plain sum of squares to 1e-12
        assert [fit[:2] for fit in fits] == [fit[:2] for fit in plain]
        for fit, want in zip(fits, plain):
            assert fit.gap == pytest.approx(want.gap, rel=1e-12)

    @pytest.mark.parametrize("share, falls_back", [(2e-12, False), (1e-12, True)])
    def test_rounding_rule_is_relative_to_the_centred_total(
        self, monkeypatch, share, falls_back
    ):
        """A closed-form rss is rounding when it is at most 1e-12 of the
        centred total |y - mean y|^2, as in _residual_ss: above that the
        evaluator's fits are kept, at it the ladder goes to fit_pls. Log
        rents near 7 make y'y far larger than the centred total, so a rule
        on y'y would drop the fits at 2e-12 of it too."""
        design, y, _ = simulated(1000, 3, default_model_spec(6, 5, 4, 3))
        ladder = DEFAULT_LAMBDA_GRID
        current = {t.name: float(ladder[6]) for t in design.spec.main_terms}
        total = gam._moments(design, y, False)[0].total
        assert share * total < 1e-12 * float(y @ y)
        eigen_ladder = gam._eigen_ladder

        def smallest(*args):
            fits = eigen_ladder(*args)
            fits[0] = fits[0]._replace(rss=share * total)
            return fits

        monkeypatch.setattr(gam, "_eigen_ladder", smallest)
        calls = counting_fit_pls(monkeypatch)
        fits = list(gam._ladder_fits(design, y, current, "year", ladder))
        assert len(calls) == (len(ladder) if falls_back else 0)
        assert (fits[0].rss == share * total) is not falls_back

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["bic", "oracle"])
    def test_memo_skips_only_ladders_whose_other_terms_held(
        self, monkeypatch, kind, seed
    ):
        """Selection picks the lambdas of the unmemoized descent, and fits
        a ladder for exactly the (term, sweep) pairs where some other term
        moved since that term's last ladder."""
        design, y, signal = simulated(1000, seed, default_model_spec())
        if kind == "bic":
            want, trace = unmemoized_descent(design, y, bic_score(design))
            ladders = recording_ladder_fits(monkeypatch)
            got = select_smoothness(design, y)
        else:
            want, trace = unmemoized_descent(
                design, y, oracle_score(design), signal=signal
            )
            ladders = recording_ladder_fits(monkeypatch)
            got = select_smoothness(design, y, signal=signal)
        assert got == want
        assert ladders == memo_ladders(trace)
        assert len(ladders) < len(trace)  # the memo skipped a ladder

    def test_selection_independent_of_scipy_blas_threads(self):
        """The CLI runs scipy's OpenBLAS on one thread. Selection picks the
        same BIC and oracle lambdas at 2 threads and at 1, and the final
        fit's k, rss and bic move at rounding level only (measured 4.4e-12
        in k at n 5000 seed 11, 6.7e-12 at n 20000 seed 3)."""
        blas = ctypes.CDLL(cython_blas.__file__)
        if not hasattr(blas, "scipy_openblas_set_num_threads"):
            pytest.skip("scipy is not built on scipy-openblas")
        threads = blas.scipy_openblas_get_num_threads()
        picks = []
        try:
            for count in (2, 1):
                blas.scipy_openblas_set_num_threads(count)
                design, y, signal = simulated(1000, 3, default_model_spec())
                lambdas = select_smoothness(design, y)
                oracle = select_smoothness(design, y, signal=signal)
                picks.append((lambdas, oracle, fit_pls(design, y, lambdas)))
        finally:
            blas.scipy_openblas_set_num_threads(threads)
        (bic_two, oracle_two, two), (bic_one, oracle_one, one) = picks
        assert bic_one == bic_two and oracle_one == oracle_two
        for field in ("k", "rss", "bic"):
            assert getattr(one, field) == pytest.approx(getattr(two, field), rel=1e-8)


class TestPredictAndSurfaces:
    def test_training_predictions_match_design_product(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        assert np.max(np.abs(predict(model, rows) - design.matrix @ model.beta)) < 1e-10

    def test_out_of_domain_prediction(self):
        rows, y = synthetic_rows(100, noise=0.3)
        model = fit_pls(build_design(rows, one_term_spec()), y, {"deprivation": 1.0})
        bad = model_columns(1, deprivation=1.5)  # deprivation beyond max
        with pytest.raises(OutOfDomainError):
            predict(model, bad)

    def test_effect_surface_grid_shapes(self):
        rows, y = synthetic_rows(150, noise=0.3)
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        s1 = effect_surface(model, "deprivation")
        assert s1.effect.shape == (100,) and len(s1.points) == 1
        s2 = effect_surface(model, "deprivation:year", grid=12)
        assert s2.effect.shape == (144,) and len(s2.points) == 2
        assert s2.se.shape == (144,)
        assert s2.significant.dtype == bool

    def test_mask_is_two_se_rule(self):
        rows, y = synthetic_rows(150, noise=0.3)
        model = fit_pls(build_design(rows, one_term_spec()), y, {"deprivation": 1.0})
        s = effect_surface(model, "deprivation", grid=50)
        assert np.array_equal(s.significant, np.abs(s.effect) > 2 * s.se)

    def test_effect_centers_over_observations(self):
        rows, y = synthetic_rows(
            200, noise=0.2, fn=lambda x, t: np.sin(5 * x) + 0.1 * t
        )
        design = build_design(rows, two_term_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        s = effect_surface(
            model, "deprivation", at=[rows["deprivation"]]
        )
        assert abs(s.effect.mean()) < 1e-6

    def test_se_against_full_covariance_oracle(self):
        rows, y = synthetic_rows(100, noise=0.3)
        design = build_design(rows, two_term_spec())
        lams = {"deprivation": 2.0, "year": 20.0}
        model = fit_pls(design, y, lams)
        a = design.gram + design.penalty(lams)
        v_full = model.sigma2 * np.linalg.inv(a)
        for name in ("deprivation", "deprivation:year"):
            surface = effect_surface(model, name, grid=9)
            block = design.block(name)
            g = block.evaluate(dict(zip(block.term.variables, surface.points)))
            wide = np.zeros((g.shape[0], design.p))
            wide[:, block.columns] = g
            oracle = np.sqrt(np.einsum("ij,jk,ik->i", wide, v_full, wide))
            assert np.max(np.abs(surface.se - oracle)) < 1e-8

    def test_chunked_se_equals_one_product(self, monkeypatch):
        # at points the basis, effect and SE are taken in row chunks, on a
        # grid by its margins; the reference is one product over every grid
        # row, with a chunk size that leaves a ragged last chunk. The effect
        # crosses zero, so its error is taken relative to its largest value.
        monkeypatch.setattr(gam, "ROW_CHUNK", 7)
        rows, y = synthetic_rows(150, noise=0.3)
        model = fit_pls(build_design(rows, two_term_spec()), y, {"deprivation": 1.0, "year": 1.0})
        grid = effect_surface(model, "deprivation:year", grid=12)
        block = model.design.block("deprivation:year")
        g = block.evaluate(dict(zip(block.term.variables, grid.points)))
        v = model.covariance_block("deprivation:year")
        oracle = np.sqrt(np.maximum(((g @ v) * g).sum(axis=1), 0.0))
        effect = g @ model.coefficients("deprivation:year")
        for surface in (grid, effect_surface(model, "deprivation:year", at=grid.points)):
            assert np.max(np.abs(surface.se - oracle) / oracle) <= 1e-12
            assert np.max(np.abs(surface.effect - effect)) <= 1e-12 * np.max(np.abs(effect))

    @pytest.mark.parametrize("grid", [[5, 6, 7], [5]])
    def test_grid_of_the_wrong_length_refused(self, grid):
        # one size per variable of the term, or one size for every axis
        model = location_model()
        with pytest.raises(ValueError, match="location needs 2 grid sizes"):
            effect_surface(model, "location", grid=grid)

    @pytest.mark.parametrize("grid", [2.7, 0, -3, True, [5, 0], [5, 2.5], [5.0, 5]])
    def test_grid_size_not_a_whole_number_refused(self, grid):
        # 2.7 once gave 2 points per axis, and 0 an empty surface
        model = location_model()
        with pytest.raises(ValueError, match="grid sizes .* are not whole numbers >= 1"):
            effect_surface(model, "location", grid=grid)

    def test_four_variable_term_needs_a_grid(self):
        # DEFAULT_GRID_POINTS covers 1 to 3 variables; a bare KeyError(4)
        # once came out of the lookup
        rng = np.random.default_rng(4)
        y = rng.standard_normal(200)
        names = ("beds", "deprivation", "year", "doy")
        rows = model_columns(200, logprice=y, beds=rng.uniform(1.0, 5.0, 200),
                             deprivation=rng.uniform(0.0, 1.0, 200),
                             year=rng.uniform(2012.0, 2017.0, 200),
                             doy=rng.uniform(1.0, 365.0, 200))
        spec = ModelSpec(terms=(TermSpec("four", names, (1, 1, 1, 1)),))
        model = fit_pls(build_design(rows, spec), y, {"four": 1.0})
        with pytest.raises(ValueError, match="^term four has 4 variables, which no "
                                             "default grid covers: give grid$"):
            effect_surface(model, "four")
        assert effect_surface(model, "four", grid=2).effect.shape == (16,)

    def test_numpy_grid_sizes_accepted(self):
        model = location_model()
        surface = effect_surface(model, "location", grid=[np.int64(3), 4])
        assert surface.effect.shape == (12,)

    @pytest.mark.parametrize("grid, at, message", [
        (None, [[], []], "coordinate arrays hold no points"),
        (3, [[-4.3], [55.8]], "give grid or at, not both"),
    ], ids=["no-points", "grid-and-at"])
    def test_points_refused(self, grid, at, message):
        # an empty surface, or one point where a grid of 9 was asked for
        with pytest.raises(ValueError, match=f"^{message}$"):
            effect_surface(location_model(), "location", grid=grid, at=at)

    def test_multiplicative_effect_forms_no_covariance(self):
        # the ratio reads only the term's basis at its two points; it equals
        # the ratio of the surface's effects at them bit for bit
        rows, y = synthetic_rows(150, noise=0.3)
        model = fit_pls(build_design(rows, two_term_spec()), y, {"deprivation": 1.0, "year": 1.0})
        ratio = multiplicative_effect(model, "deprivation:year", [0.2, 2013.0], [0.7, 2016.0])
        assert model._cov_unscaled is None
        surface = effect_surface(model, "deprivation:year", at=[[0.2, 0.7], [2013.0, 2016.0]])
        assert ratio == float(np.exp(surface.effect[1] - surface.effect[0]))

    @pytest.mark.parametrize("x0, x1", [([0.2], [0.7]), ([0.2, 2013.0], [0.7]),
                                        ([0.2, 2013.0, 1.0], [0.7, 2016.0, 1.0])])
    def test_multiplicative_effect_needs_one_value_per_variable(self, x0, x1):
        rows, y = synthetic_rows(150, noise=0.3)
        model = fit_pls(build_design(rows, two_term_spec()), y, {"deprivation": 1.0, "year": 1.0})
        with pytest.raises(ValueError, match="one value per variable"):
            multiplicative_effect(model, "deprivation:year", x0, x1)

    def test_multiplicative_effect_reads_linear_truth(self):
        # slope 0.25 per unit, so a unit step multiplies rent by e^0.25
        x = np.linspace(0.0, 1.0, 400)
        y = 6.0 + 0.25 * x
        rows = model_columns(400, logprice=y, deprivation=x)
        model = fit_pls(build_design(rows, one_term_spec()), y, {"deprivation": 1.0})
        ratio = multiplicative_effect(model, "deprivation", 0.0, 1.0)
        assert ratio == pytest.approx(math.exp(0.25), abs=1e-6)
